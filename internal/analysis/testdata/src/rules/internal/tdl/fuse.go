// Package tdl is analyzer test data: whether passes chain is decided by the
// plan lowering alone.
package tdl

func Fuse() {} // want `one-fusion: Fuse`

var fused = Fuse // want `one-fusion: Fuse`

func MergePasses() {} // want `one-fusion: MergePasses`
