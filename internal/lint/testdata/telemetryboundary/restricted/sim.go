// Fixture type-checked as repro/internal/sim: importing the host telemetry
// layer from a simulator package must be flagged, in test files too.
package sim

import (
	"fmt"

	"repro/internal/telemetry" // want "simulator package repro/internal/sim imports host telemetry package repro/internal/telemetry"
)

// use keeps the imports referenced so the fixture type-checks.
func use() {
	fmt.Sprint(telemetry.NewFlags())
}
