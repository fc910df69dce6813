package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// probePkgPath is the observability layer whose objects must stay per-run.
const probePkgPath = "repro/internal/probe"

// ProbepurityPackages are the packages in which probe objects may only live
// as per-run values: the simulation packages bound by the sim.Run purity
// contract plus the ISA and probe packages themselves (which sit on the
// simulated-result path but are not in SimpurityPackages' write-check scope
// for historical layering reasons).
var ProbepurityPackages = append([]string{
	"repro/internal/isa",
	probePkgPath,
}, SimpurityPackages...)

// Probepurity forbids package-level state of probe types (Tracer, Emitter,
// Registry, Collect, ...) in simulator packages. A package-level tracer or
// registry would be shared across concurrent sim.Run calls — exactly the
// aliasing the probe layer's per-run injection design exists to prevent —
// and would let one run's observation perturb another's. Probes must be
// injected per run via sim.Config/RunTraced and stored in per-run structs.
var Probepurity = &Analyzer{
	Name: "probepurity",
	Doc: "forbid package-level variables of probe types in simulator packages; " +
		"tracers and registries are per-run objects",
	Run: runProbepurity,
}

func runProbepurity(pass *Pass) error {
	if !anyPkgMatches(pass.Pkg.Path(), ProbepurityPackages) {
		return nil
	}
	for _, f := range pass.Files {
		if inTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					// Blank vars carry no state; `var _ probe.Tracer = (*T)(nil)`
					// interface-satisfaction assertions are idiomatic and safe.
					if name.Name == "_" {
						continue
					}
					v, ok := objOf(pass.TypesInfo, name).(*types.Var)
					if !ok {
						continue
					}
					if typeUsesPackage(v.Type(), probePkgPath, make(map[types.Type]bool)) {
						pass.Reportf(name.Pos(), "package-level variable %s holds probe state (%s): "+
							"tracers and registries are per-run objects — inject them via "+
							"sim.RunTraced/probe registration and store them in per-run structs",
							name.Name, v.Type())
					}
				}
			}
		}
	}
	return nil
}

// typeUsesPackage reports whether t's structure reaches a named type defined
// in pkgpath, looking through pointers, containers, tuples, function
// signatures and struct fields. The seen set breaks recursive types.
func typeUsesPackage(t types.Type, pkgpath string, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch x := t.(type) {
	case *types.Named:
		if obj := x.Obj(); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgpath {
			return true
		}
		return typeUsesPackage(x.Underlying(), pkgpath, seen)
	case *types.Alias:
		return typeUsesPackage(types.Unalias(x), pkgpath, seen)
	case *types.Pointer:
		return typeUsesPackage(x.Elem(), pkgpath, seen)
	case *types.Slice:
		return typeUsesPackage(x.Elem(), pkgpath, seen)
	case *types.Array:
		return typeUsesPackage(x.Elem(), pkgpath, seen)
	case *types.Chan:
		return typeUsesPackage(x.Elem(), pkgpath, seen)
	case *types.Map:
		return typeUsesPackage(x.Key(), pkgpath, seen) || typeUsesPackage(x.Elem(), pkgpath, seen)
	case *types.Struct:
		for i := 0; i < x.NumFields(); i++ {
			if typeUsesPackage(x.Field(i).Type(), pkgpath, seen) {
				return true
			}
		}
	case *types.Signature:
		return typeUsesPackage(x.Params(), pkgpath, seen) || typeUsesPackage(x.Results(), pkgpath, seen)
	case *types.Tuple:
		for i := 0; i < x.Len(); i++ {
			if typeUsesPackage(x.At(i).Type(), pkgpath, seen) {
				return true
			}
		}
	case *types.Interface:
		for i := 0; i < x.NumMethods(); i++ {
			if typeUsesPackage(x.Method(i).Type(), pkgpath, seen) {
				return true
			}
		}
	}
	return false
}
