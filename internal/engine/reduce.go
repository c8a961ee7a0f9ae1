package engine

import (
	"context"
	"errors"
	"fmt"

	"pblparallel/internal/obs"
)

// Reduce executes a deterministic parallel reduction over [0, n): the
// index space is cut into grain-aligned chunks [lo, hi), each chunk is
// accumulated — by exactly one worker, in one accum call — into that
// chunk's private partial of type S, and the per-chunk partials are
// folded into a single S in ascending chunk order on the calling
// goroutine.
//
// The determinism guarantee is structural, not statistical. The
// scheduler hands out chunk indices, one claim per chunk, so the
// bounds each accum call sees are a pure function of (n, grain) —
// never of the worker count or the interleaving. The final fold visits
// chunks 0, 1, 2, … sequentially. Together that makes the result
// byte-identical at any worker count, which is what the mega-cohort
// runner and the golden tests pin. Changing grain, by contrast,
// changes how floating-point error associates and is part of the
// result's content identity.
//
// accum folds indices lo..hi-1, in ascending order, into the chunk
// partial (zero-valued S at chunk start): one call per chunk, so any
// per-chunk work (a fault decision, a cancellation check, decoding
// where the chunk starts) is paid once, not per index. merge folds a
// completed chunk partial into the running total; it must treat a
// zero S as an identity (stats.Moments and stats.CoMoments guarantee
// exactly that). Memory is O(ceil(n/grain)) partials for the whole
// reduction and O(1) per worker; callers that need bounded memory at
// huge n pick grain accordingly.
//
// Reduce is fail-fast like Map: the first accum error (by chunk
// index, for determinism) cancels the remaining chunks and is
// returned. Cancellation is checked per chunk: once the context is
// done no further chunk is handed out, while a chunk already running
// finishes unless accum itself checks ctx. On caller cancellation the
// error wraps ErrCanceled.
func Reduce[S any](ctx context.Context, e *Engine, n, grain int,
	accum func(ctx context.Context, lo, hi int, part *S) error,
	merge func(into *S, part *S),
) (S, error) {
	var out S
	if n < 0 {
		return out, fmt.Errorf("engine: reduce: negative count %d", n)
	}
	if accum == nil || merge == nil {
		return out, errors.New("engine: reduce: nil accum or merge")
	}
	if grain < 1 {
		grain = 1
	}
	nChunks := (n + grain - 1) / grain
	partials := make([]S, nChunks)
	errs := make([]error, nChunks)

	redCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sp, redCtx := obs.Default().StartSpan(redCtx, obs.PIDEngine, 0, "engine", "reduce")
	sp = sp.Int("indices", int64(n)).Int("grain", int64(grain)).Int("chunks", int64(nChunks))
	e.mapIndexed(redCtx, nChunks, func(runCtx context.Context, c, worker int) {
		lo := c * grain
		if err := accum(runCtx, lo, lo+min(grain, n-lo), &partials[c]); err != nil {
			errs[c] = err
			cancel() // fail fast: stop handing out further chunks
		}
	})
	sp.End()

	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("engine: reduce: %w (%w)", ErrCanceled, err)
	}
	for c, err := range errs {
		if err != nil {
			lo := c * grain
			hi := min(lo+grain, n)
			return out, fmt.Errorf("engine: reduce chunk %d (indices %d..%d): %w", c, lo, hi-1, err)
		}
	}
	// No recorded error and a live caller context: the fail-fast cancel
	// never fired, so every index ran (same argument as Map). Fold the
	// partials in ascending chunk order.
	for c := range partials {
		merge(&out, &partials[c])
	}
	return out, nil
}
