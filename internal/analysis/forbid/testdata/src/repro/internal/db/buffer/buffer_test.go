package buffer

// Test files are checked too.
func countShards() int {
	numShards := 2 // want "numShards is forbidden here"
	return numShards
}
