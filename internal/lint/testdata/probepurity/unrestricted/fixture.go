// The same shapes as the restricted fixture, type-checked under a package
// path outside ProbepurityPackages (a CLI): package-level probe state is
// legal there — cmd/evesim's trace collector lives for one process — so the
// analyzer must stay silent.
package fixture

import "repro/internal/probe"

var globalTracer probe.Tracer

var globalRegistry = probe.NewRegistry()

var tracerPool []probe.Tracer

func use() (probe.Tracer, *probe.Registry, []probe.Tracer) {
	return globalTracer, globalRegistry, tracerPool
}
