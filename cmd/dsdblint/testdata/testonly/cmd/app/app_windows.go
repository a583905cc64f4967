package main

import "example.com/m/internal/lib"

func platform() { lib.WindowsOnly() }
