package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerLimits pins the daemons' connection limits: header and
// idle deadlines set, and no read or write deadline that would cut a held
// ?wait=1 request.
func TestNewHTTPServerLimits(t *testing.T) {
	hs := NewHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Errorf("header/idle timeouts %v/%v, want %v/%v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("read/write timeouts %v/%v, want none (held waits outlive any fixed deadline)",
			hs.ReadTimeout, hs.WriteTimeout)
	}
}

// TestStalledHeaderDisconnected drives a slow-loris client: it sends half a
// request header and stalls. The server must close the connection once the
// header deadline passes, while a complete request is still answered.
func TestStalledHeaderDisconnected(t *testing.T) {
	hs := NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	hs.ReadHeaderTimeout = 100 * time.Millisecond // the daemons' deadline, compressed
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { hs.Close() })

	dial := func() net.Conn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return c
	}

	stalled := dial()
	fmt.Fprint(stalled, "GET /healthz HTTP/1.1\r\nHost: laxd\r\n") // no closing blank line
	start := time.Now()
	_, err = io.ReadAll(stalled)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}

	whole := dial()
	fmt.Fprint(whole, "GET /healthz HTTP/1.1\r\nHost: laxd\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(whole), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("complete request got %d, want 204", resp.StatusCode)
	}
}
