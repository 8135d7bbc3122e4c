// Package batchescape defines an analyzer enforcing the pooled-batch
// lifetime rule from docs/execution.md: a *types.Batch obtained from an
// operator's Next/NextBatch, or received as a scan-callback argument,
// is valid only until the next batch is produced. Retaining one —
// storing it in a struct field, a global, a slice or map, sending it on
// a channel, or handing it to a goroutine — without first laundering it
// through Copy/Compact/AppendBatch is a use-after-reuse bug that
// corrupts results only under load, which is exactly why it must be
// machine-checked.
//
// The analyzer is flow-insensitive by design: it tracks identifiers
// bound to a pooled source inside one function body and flags direct
// stores of them. Rebinding the identifier to its own Copy/Compact
// result removes it from tracking. Contract-preserving holds (a cursor
// retaining the current batch until its own next call) are annotated
// //oadb:allow-batchescape <reason>.
package batchescape

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the batchescape pass.
var Analyzer = &analysis.Analyzer{
	Name: "batchescape",
	Doc:  "report pooled *types.Batch values from Next/NextBatch or scan callbacks escaping to stores, channels, or goroutines",
	Run:  run,
}

// sourceMethods produce pooled batches.
var sourceMethods = map[string]bool{"Next": true, "NextBatch": true}

// launderMethods transfer a batch's contents to caller-owned memory.
var launderMethods = map[string]bool{"Copy": true, "Compact": true}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkFunc analyzes one top-level function body (function literals
// inside it are visited as part of the same walk, so scan-callback
// parameters are tracked where they appear).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	pooled := make(map[types.Object]bool)

	// Pass 1: collect pooled identifiers and drop relaundered ones.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				// b, err := op.Next() (tuple) or b := src.NextBatch().
				var lhs ast.Expr
				if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
					lhs = n.Lhs[0]
				} else if i < len(n.Lhs) {
					lhs = n.Lhs[i]
				}
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				if isPooledSourceCall(pass, call) {
					pooled[obj] = true
				} else if isLaunderCall(pass, call) {
					// b = b.Copy(): the variable now owns its memory.
					delete(pooled, obj)
				}
			}
		case *ast.CallExpr:
			// Scan callbacks: a func literal passed to X.Scan*(...) gets a
			// pooled batch parameter.
			if isScanCall(pass, n) {
				for _, arg := range n.Args {
					fl, ok := ast.Unparen(arg).(*ast.FuncLit)
					if !ok {
						continue
					}
					for _, field := range fl.Type.Params.List {
						for _, name := range field.Names {
							obj := pass.TypesInfo.Defs[name]
							if obj != nil && isBatchPtr(obj.Type()) {
								pooled[obj] = true
							}
						}
					}
				}
			}
		}
		return true
	})
	// Pass 2: flag escapes of tracked identifiers, plus direct stores
	// (x.f, err = op.Next()) which involve no tracked identifier at all.
	isTracked := func(e ast.Expr) (types.Object, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := pass.TypesInfo.Uses[id]
		if obj != nil && pooled[obj] {
			return obj, true
		}
		return nil, false
	}
	report := func(pos ast.Node, obj types.Object, how string) {
		pass.Reportf(pos.Pos(), "pooled batch %s %s; it is valid only until the next batch — retain via Copy/AppendBatch or annotate //oadb:allow-batchescape", obj.Name(), how)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Direct store of a fresh pooled batch: x.f, err = op.Next().
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && isPooledSourceCall(pass, call) {
					switch ast.Unparen(n.Lhs[0]).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
						pass.Reportf(n.Pos(), "pooled batch from %s stored directly without Copy; it is valid only until the next batch — retain via Copy/AppendBatch or annotate //oadb:allow-batchescape", exprCallName(call))
					}
				}
			}
			for i, rhs := range n.Rhs {
				obj, ok := isTracked(rhs)
				if !ok {
					continue
				}
				if i >= len(n.Lhs) {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					report(n, obj, "stored in field "+exprString(lhs))
				case *ast.IndexExpr:
					report(n, obj, "stored in slice/map element")
				case *ast.StarExpr:
					report(n, obj, "stored through a pointer")
				case *ast.Ident:
					if v := pass.TypesInfo.Uses[lhs]; v != nil && isPackageLevel(v) {
						report(n, obj, "stored in package-level variable "+lhs.Name)
					}
				}
			}
		case *ast.SendStmt:
			if obj, ok := isTracked(n.Value); ok {
				report(n, obj, "sent on a channel")
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if obj, ok := isTracked(arg); ok {
					report(n, obj, "passed to a goroutine")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if obj, ok := isTracked(v); ok {
					report(elt, obj, "stored in a composite literal")
				}
			}
		case *ast.CallExpr:
			// append(dst, b) retains b in dst's backing array.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltin(pass.TypesInfo.Uses[id]) {
				for _, arg := range n.Args[1:] {
					if obj, ok := isTracked(arg); ok {
						report(n, obj, "appended to a slice")
					}
				}
			}
		}
		return true
	})
}

// isPooledSourceCall reports whether call is X.Next()/X.NextBatch()
// returning a *types.Batch as its first result.
func isPooledSourceCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || !sourceMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() == 0 {
		return false
	}
	return isBatchPtr(sig.Results().At(0).Type())
}

// isLaunderCall reports whether call is X.Copy()/X.Compact() on a
// batch.
func isLaunderCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || !launderMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() > 0 && isBatchPtr(sig.Results().At(0).Type())
}

// isScanCall reports whether call's callee name begins with "Scan"
// (Scan, ScanCtx, ScanWorkers, ...), the engine's
// callback-delivery scan surface.
func isScanCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	return fn != nil && strings.HasPrefix(fn.Name(), "Scan")
}

// isBatchPtr reports whether t is *types.Batch (the engine's, matched
// by package-path suffix internal/types).
func isBatchPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return analysis.TypeIn(p.Elem(), "internal/types", "Batch")
}

func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

func isBuiltin(obj types.Object) bool {
	_, ok := obj.(*types.Builtin)
	return ok
}

// exprCallName renders the callee of a call for diagnostics.
func exprCallName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "the source"
}

func exprString(e *ast.SelectorExpr) string {
	if id, ok := e.X.(*ast.Ident); ok {
		return id.Name + "." + e.Sel.Name
	}
	return e.Sel.Name
}
