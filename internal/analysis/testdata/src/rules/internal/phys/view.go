// Package phys is analyzer test data: one typed view serves every element
// type.
package phys

func ViewFloat32s(b []byte) []float32 { return nil } // want `one-codec: ViewFloat32s`
