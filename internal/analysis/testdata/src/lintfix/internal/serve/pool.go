// Package serve mirrors the experiment service, except that its pool runs
// the work inline: pool.go holds no go statement, so the real allowlist
// entry for internal/serve/pool.go matches nothing in this module and must
// be reported stale.
package serve // want determinism/staleallow

// Start runs the work inline on the caller's goroutine.
func Start(workers int, run func()) {
	for i := 0; i < workers; i++ {
		run()
	}
}
