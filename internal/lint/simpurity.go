package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimpurityPackages are the packages bound by the sim.Run purity contract:
// everything on the simulated-result path. internal/sweep is included
// because it schedules result cells; its progress observer's intentional
// wall-clock reads carry //evelint:allow annotations.
var SimpurityPackages = []string{
	"repro/internal/sim",
	"repro/internal/cpu",
	"repro/internal/mem",
	"repro/internal/vengine",
	"repro/internal/eve",
	"repro/internal/uprog",
	"repro/internal/sweep",
	"repro/internal/faults",
	"repro/internal/probe",
	// internal/metrics is a pure derivation layer over probe snapshots; its
	// outputs land verbatim in bit-stable bench reports, so it is bound by
	// both contracts (ProbepurityPackages includes this list wholesale).
	"repro/internal/metrics",
	// The campaign engine's byte-identical-resume contract is a purity
	// contract: every journaled and reported quantity must be a function of
	// the space alone. Its few legitimate wall-clock sites (watchdog,
	// progress) live in internal/sweep behind annotations.
	"repro/internal/campaign",
	"repro/cmd/eve-explore",
}

// Simpurity enforces the purity contract documented on sim.Run: simulation
// packages must not read wall clocks, draw unseeded randomness, probe the
// environment, or write package-level mutable state outside initialization.
// Any of these lets host state or run ordering leak into simulated results,
// breaking the bit-identical (kernel, system) sweep that internal/sweep's
// determinism regression test samples — this check makes it total.
var Simpurity = &Analyzer{
	Name: "simpurity",
	Doc: "forbid wall-clock reads, unseeded randomness, environment probes and " +
		"package-level state writes in simulation packages",
	Run: runSimpurity,
}

// impureFuncs maps package path -> function names whose call (or mention)
// injects host state into a simulation.
var impureFuncs = map[string]map[string]string{
	"time": {
		"Now":       "wall-clock read",
		"Since":     "wall-clock read",
		"Until":     "wall-clock read",
		"Sleep":     "wall-clock dependence",
		"Tick":      "wall-clock dependence",
		"After":     "wall-clock dependence",
		"AfterFunc": "wall-clock dependence",
		"NewTicker": "wall-clock dependence",
		"NewTimer":  "wall-clock dependence",
	},
	"os": {
		"Getenv":    "environment probe",
		"LookupEnv": "environment probe",
		"Environ":   "environment probe",
	},
}

// randExempt lists math/rand constructors that take an explicit source or
// seed; randomness with caller-provided seeds is reproducible and allowed.
var randExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runSimpurity(pass *Pass) error {
	if !anyPkgMatches(pass.Pkg.Path(), SimpurityPackages) {
		return nil
	}
	for _, f := range pass.Files {
		if inTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Writes to package-level state are allowed during package
			// initialization: init functions run once, before any
			// simulation, on a single goroutine.
			isInit := fd.Recv == nil && fd.Name.Name == "init"
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Ident:
					checkImpureUse(pass, x)
				case *ast.AssignStmt:
					if !isInit {
						for _, lhs := range x.Lhs {
							checkGlobalWrite(pass, lhs)
						}
					}
				case *ast.IncDecStmt:
					if !isInit {
						checkGlobalWrite(pass, x.X)
					}
				case *ast.RangeStmt:
					if !isInit && x.Tok == token.ASSIGN {
						checkGlobalWrite(pass, x.Key)
						checkGlobalWrite(pass, x.Value)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkImpureUse flags any mention of a forbidden package-level function —
// calls and function values alike, whatever the import is named.
func checkImpureUse(pass *Pass, id *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods are judged by their receiver's provenance, not here
	}
	path := fn.Pkg().Path()
	if m, ok := impureFuncs[path]; ok {
		if why, ok := m[fn.Name()]; ok {
			pass.Reportf(id.Pos(), "%s: %s.%s injects host state into a simulation "+
				"(sim.Run purity contract)", why, path, fn.Name())
		}
		return
	}
	if (path == "math/rand" || path == "math/rand/v2") && !randExempt[fn.Name()] {
		pass.Reportf(id.Pos(), "unseeded randomness: %s.%s draws from the global source; "+
			"thread an explicitly seeded *rand.Rand through the config instead", path, fn.Name())
	}
}

// checkGlobalWrite flags an assignment whose target roots in a package-level
// variable (of this or any imported package).
func checkGlobalWrite(pass *Pass, lhs ast.Expr) {
	if lhs == nil {
		return
	}
	root := rootIdent(lhs)
	if root == nil || root.Name == "_" {
		return
	}
	v, ok := objOf(pass.TypesInfo, root).(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return
	}
	if v.Parent() != v.Pkg().Scope() {
		return // local, parameter, or receiver
	}
	pass.Reportf(lhs.Pos(), "write to package-level variable %s outside init: "+
		"simulation state must be built per sim.Run call (purity contract); "+
		"move it into a struct or initialize it in init()", v.Name())
}
