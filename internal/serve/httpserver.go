package serve

import (
	"net/http"
	"time"
)

// Connection limits shared by both daemons' listeners (laxd and laxgw).
// readHeaderTimeout cuts off a client that opens a connection and then
// trickles or stalls its request headers (a slow-loris client would
// otherwise hold a connection and its goroutine forever). idleTimeout
// closes keep-alive connections left idle; it exceeds net/http's 90 s
// client-side idle timeout, so a pooled client such as the gateway's
// RemoteBackend normally retires an idle connection before the server
// does. There is deliberately no WriteTimeout: a held
// GET /v1/jobs/{id}?wait=1 (up to statusHoldCap) and a POST ?wait=1
// submission stay open for as long as the job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server a daemon serves h with: the
// connection limits above and no write deadline.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
