package repro

import "repro/internal/trace"

// EnableTracing points the engine at a trace ring: background work that has
// no request context (snapshot compaction) records its own root traces
// there, from every current shard engine and from shards populated later.
// Request traces are created and retained by the caller (the HTTP server);
// the engine only adds spans to whatever trace the context carries, ring
// or no ring. Safe to call at most once, before serving.
func (e inProcess) EnableTracing(ring *trace.Ring) {
	e.loc.traceRing.Store(ring)
	for _, eng := range e.loc.engines() {
		eng.traceRing.Store(ring)
	}
}
