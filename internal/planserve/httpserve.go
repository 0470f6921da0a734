package planserve

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Connection limits of every server ServeUntil starts: a client gets
// readHeaderTimeout to deliver its request header and a keep-alive
// connection is dropped after idleTimeout without a request, so a
// stalled or abandoned connection cannot pin a goroutine and a file
// descriptor for the life of the process. Request bodies and responses
// are not bounded here (a cold batch plan or a pprof profile may
// legitimately take long).
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// ServeUntil serves handler on ln until ctx is cancelled, then shuts
// the server down gracefully, waiting up to grace for in-flight
// requests to drain before forcing connections closed. A nil handler
// serves http.DefaultServeMux. Returns nil after a clean shutdown, or
// the serve/shutdown error.
func ServeUntil(ctx context.Context, ln net.Listener, handler http.Handler, grace time.Duration) error {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		// Serve failed on its own before any shutdown was requested.
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		_ = srv.Close()
		<-errCh
		return err
	}
	if err := <-errCh; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// StartServer listens on addr and serves handler in the background via
// ServeUntil. It returns the bound address (useful with ":0") and a
// stop function that shuts the server down gracefully and returns the
// serve error, if any — so callers report serve failures at shutdown
// instead of losing them in an orphaned goroutine.
func StartServer(addr string, handler http.Handler, grace time.Duration) (bound string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- ServeUntil(ctx, ln, handler, grace) }()
	stop = func() error {
		cancel()
		return <-errCh
	}
	return ln.Addr().String(), stop, nil
}
