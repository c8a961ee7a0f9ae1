package obs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a mutex-guarded string sink for logger races.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestLoggerLine(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf).With("test")
	tc := TraceContext{Trace: NewTraceID()}
	ctx := ContextWithTrace(context.Background(), tc)
	l.Info(ctx, "cache miss", "key", "abc123", "n", 7, "d", 250*time.Millisecond,
		"ok", true, "ratio", 0.5, "err", errors.New("boom boom"))

	line := strings.TrimSuffix(buf.String(), "\n")
	for _, want := range []string{
		"ts=", " level=info", " comp=test",
		" trace=" + tc.Trace.String(),
		" msg=\"cache miss\"", " key=abc123", " n=7", " d=250ms",
		" ok=true", " ratio=0.5", ` err="boom boom"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", buf.String())
	}
}

// TestLoggerLevels pins the two fixed levels: info and error lines both
// write, each naming its level, since there is no filter to drop one.
func TestLoggerLevels(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf)
	l.Info(context.Background(), "i")
	l.Error(context.Background(), "e")
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], " level=info msg=i") || !strings.Contains(lines[1], " level=error msg=e") {
		t.Fatalf("want one info then one error line, got %q", buf.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info(context.Background(), "ignored", "k", "v") // must not panic
	if l.With("x") != nil {
		t.Fatal("nil.With should stay nil")
	}
	l.Error(context.Background(), "ignored")
}

func TestLoggerNoTraceOmitsField(t *testing.T) {
	var buf syncBuf
	NewLogger(&buf).Info(context.Background(), "hello")
	if strings.Contains(buf.String(), "trace=") {
		t.Fatalf("uncorrelated line carries trace=: %q", buf.String())
	}
}
