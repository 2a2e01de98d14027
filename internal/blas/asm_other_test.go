//go:build !amd64 || purego || race

package blas

// asmTiles are the register tiles of this build's assembly: none.
func asmTiles() []regTile { return nil }
