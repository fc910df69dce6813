// The same import type-checked under a host-side path: CLIs and report
// tooling are exactly where telemetry belongs, so the analyzer stays silent.
package host

import (
	"fmt"

	"repro/internal/telemetry"
)

func use() {
	fmt.Sprint(telemetry.NewFlags())
}
