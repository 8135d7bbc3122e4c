// Package ctxscan defines an analyzer enforcing context threading on
// the scan/execution path.
//
// Cancellation is load-bearing in this engine: a query's morsel workers
// and scan producers exit because a context wired from the db layer
// reaches colstore (docs/execution.md). Two rules keep that chain
// intact:
//
//  1. No context.Background() or context.TODO() below the db/cmd
//     layers — i.e. in any package under internal/. A Background there
//     detaches everything beneath it from the caller's cancellation.
//     Deliberate boundaries (legacy convenience wrappers, daemon
//     lifecycles owned by Close) are annotated //oadb:allow-ctxscan.
//
//  2. An exported function in a scan-path package (internal/exec,
//     internal/storage/colstore, internal/core, internal/sql) that
//     spawns goroutines must accept a context.Context: worker
//     goroutines without a context cannot be cancelled and leak on
//     abandoned queries.
package ctxscan

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the ctxscan pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxscan",
	Doc:  "enforce context.Context threading below the db layer and on worker-spawning scan-path APIs",
	Run:  run,
}

// scanPathPkgs are the package-path suffixes where exported
// goroutine-spawning functions must take a context.
var scanPathPkgs = []string{
	"internal/exec",
	"internal/storage/colstore",
	"internal/core",
	"internal/sql",
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	below := strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
	if !below {
		return nil
	}
	scanPath := false
	for _, suffix := range scanPathPkgs {
		if analysis.PathHasSuffix(path, suffix) {
			scanPath = true
			break
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name, ok := backgroundCall(pass, call); ok {
					pass.Reportf(call.Pos(), "context.%s below the db layer severs cancellation: thread a ctx from the caller or annotate //oadb:allow-ctxscan", name)
				}
			}
			return true
		})
		if !scanPath {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if !spawnsGoroutine(fd.Body) {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if analysis.HasContextParam(sig) {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "exported %s spawns goroutines but takes no context.Context; workers it starts cannot be cancelled", fd.Name.Name)
		}
	}
	return nil
}

// backgroundCall reports whether call is context.Background() or
// context.TODO().
func backgroundCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name, true
	}
	return "", false
}

// spawnsGoroutine reports whether body lexically contains a go
// statement (including inside nested function literals, which is how
// worker pools are typically written).
func spawnsGoroutine(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}
