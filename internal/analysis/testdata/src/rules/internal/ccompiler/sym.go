package ccompiler

// Hand-typed operand lists restate the op table's directions and strides.
type symCall struct {
	InBufs     []int // want `one-accelerator-entry: InBufs`
	OutBufs    []int // want `one-accelerator-entry: OutBufs`
	StrideBufs []int // want `one-accelerator-entry: StrideBufs`
}
