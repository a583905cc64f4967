//go:build !windows

package main

func platform() {}
