package fault

import "context"

// ctxKey carries an injector through a context.
type ctxKey struct{}

// NewContext scopes an injector to a context subtree. The engine uses
// this to hand each run attempt its own forked decision stream without
// disturbing concurrent runs. Injection is context-scoped only: there
// is no process-wide injector.
func NewContext(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, ctxKey{}, in)
}

// FromContext returns the context-scoped injector, or nil when none is
// set. This is the lookup the core pipeline performs once per run
// before plumbing the injector into the omp, mpi, and pisim layers.
func FromContext(ctx context.Context) *Injector {
	if ctx != nil {
		if in, ok := ctx.Value(ctxKey{}).(*Injector); ok {
			return in
		}
	}
	return nil
}
