package vec

// SetChunkRows sets how many rows a Fold decodes at a time, for tests that
// place chunk boundaries, and returns the length it replaces.
func SetChunkRows(n int) (was int) {
	was, chunkRows = chunkRows, n
	return was
}
