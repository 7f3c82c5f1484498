//go:build race

// Package race reports whether the binary was built with the race
// detector, for tests whose assertions the detector's instrumentation
// breaks (it allocates, so zero-allocation proofs skip themselves).
package race

// Enabled is true under -race.
const Enabled = true
