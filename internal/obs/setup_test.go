package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSessionPprofRoutes boots the -pprof server on an ephemeral port
// and asserts every advertised debug route answers: the pprof index and
// cmdline endpoints, the Prometheus /metrics exposition, and
// /debug/vars. This is the contract the README's profiling walkthrough
// relies on.
func TestSessionPprofRoutes(t *testing.T) {
	cli := &CLI{PprofAddr: "127.0.0.1:0"}
	s, err := cli.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()
	addr := s.PprofAddr()
	if addr == "" {
		t.Fatal("PprofAddr empty after Start with -pprof set")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	checks := []struct {
		path string
		want string // substring expected in the body
	}{
		{"/debug/pprof/", "profiles"},
		{"/debug/pprof/cmdline", ""},
		{"/metrics", "# TYPE"},
		{"/debug/vars", "cmdline"},
	}
	for _, c := range checks {
		resp, err := client.Get(fmt.Sprintf("http://%s%s", addr, c.path))
		if err != nil {
			t.Fatalf("GET %s: %v", c.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", c.path, resp.StatusCode)
		}
		if c.want != "" && !strings.Contains(string(body), c.want) {
			t.Errorf("GET %s: body missing %q (got %d bytes)", c.path, c.want, len(body))
		}
	}
}

// TestSessionPprofDisconnectsDripFeedingClient: a client that sends its
// headers and then drips a request body a byte at a time is cut off by
// the -pprof server once pprofReadTimeout has passed.
func TestSessionPprofDisconnectsDripFeedingClient(t *testing.T) {
	s, err := (&CLI{PprofAddr: "127.0.0.1:0"}).Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()
	addr := s.PprofAddr()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprintf(conn, "POST /metrics HTTP/1.1\r\nHost: %s\r\nContent-Length: 4096\r\n\r\n{", addr); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, conn)
		close(closed)
	}()
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	limit := time.After(pprofReadTimeout + 5*time.Second)
	for {
		select {
		case <-closed:
			t.Logf("disconnected after %v (read timeout %v)", time.Since(start).Round(time.Millisecond), pprofReadTimeout)
			return
		case <-limit:
			t.Fatalf("a client dripping its body is still connected after %v (read timeout %v)", time.Since(start).Round(time.Millisecond), pprofReadTimeout)
		case <-tick.C:
			_, _ = conn.Write([]byte(" ")) // fails once the server has closed; the read side reports that
		}
	}
}

// TestSessionPprofAddrNil covers the nil-safe accessors: a nil session
// and a session without a listener both report no address and close
// cleanly.
func TestSessionPprofAddrNil(t *testing.T) {
	var s *Session
	if got := s.PprofAddr(); got != "" {
		t.Errorf("nil session PprofAddr = %q, want empty", got)
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil session Close: %v", err)
	}
	if got := (&Session{cli: &CLI{}}).PprofAddr(); got != "" {
		t.Errorf("listener-less session PprofAddr = %q, want empty", got)
	}
}
