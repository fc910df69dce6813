// The //evelint:allow hatch suppresses the finding like every other
// analyzer — the comment group above the import covers it.
package sim

import (
	"fmt"

	//evelint:allow telemetryboundary -- fixture: prove the escape hatch applies
	tel "repro/internal/telemetry"
)

func useAllowed() {
	fmt.Sprint(tel.NewFlags())
}
