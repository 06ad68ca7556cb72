package accel

// A field schema beside the typed argument structs, and a rate table beside
// the entries, are second declarations of what an accelerator is.
type fieldKind uint8 // want `one-accelerator-entry: fieldKind`

const fStrided = 3 // want `one-accelerator-entry: fStrided`

type layerConfig struct {
	OpRates map[uint8]float64 // want `one-accelerator-entry: OpRates`
}
