// Package telemetry is a stand-in for repro/internal/telemetry so the
// fixtures can import it without the linttest helper needing the real
// package's export data.
package telemetry

// Flags mirrors the shape the fixtures reference.
type Flags struct{}

// NewFlags stands in for the real constructor.
func NewFlags() *Flags { return &Flags{} }
