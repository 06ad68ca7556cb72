// Package tdlcheck is analyzer test data: a structural verifier of TDL
// programs beside the parser that already rejects what it checks.
package tdlcheck

func VerifyProgram() error { return nil } // want `one-accelerator-entry: VerifyProgram`
