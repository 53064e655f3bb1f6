package trace

import "context"

// ctxKey is the private context key for span propagation.
type ctxKey struct{}

// ContextWith returns a context carrying sp, for handing a parent span
// across API boundaries that already thread a context (e.g. the runner's
// replication fan-out). Attaching the zero Span is harmless: children of
// it are no-ops.
func ContextWith(ctx context.Context, sp Span) context.Context {
	if sp.tr == nil {
		return ctx // avoid an allocation on the disabled path
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or the zero (no-op) Span
// when ctx carries none or is nil.
func FromContext(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	sp, _ := ctx.Value(ctxKey{}).(Span)
	return sp
}
