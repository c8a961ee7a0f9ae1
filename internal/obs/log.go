package obs

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// logOutput is the shared sink behind a logger family: one mutex and
// one writer, so With-derived component loggers all serialize onto the
// same stream.
type logOutput struct {
	mu sync.Mutex
	w  io.Writer
}

// Logger is a tiny zero-dependency structured logger. Lines are
// logfmt-style key=value pairs, stamped with the context's trace ID
// when one is present, so stderr diagnostics correlate with span trees
// and flight-recorder bundles:
//
//	ts=2026-08-05T10:32:11.042Z level=info comp=serve trace=4bf9… msg="listening" addr=:8080
//
// The zero-value *Logger (nil) is a no-op, matching the tracer's
// nil-safety contract.
type Logger struct {
	out  *logOutput
	comp string
}

// NewLogger builds a logger writing every line to w. There are two
// levels, info and error, and no filter: both always write.
func NewLogger(w io.Writer) *Logger {
	return &Logger{out: &logOutput{w: w}}
}

// With returns a logger stamping every line with comp=name; derived
// loggers share the parent's writer.
func (l *Logger) With(comp string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{out: l.out, comp: comp}
}

// Info logs at info level; kvs are alternating key, value pairs.
func (l *Logger) Info(ctx context.Context, msg string, kvs ...any) {
	l.log(ctx, "info", msg, kvs)
}

// Error logs at error level.
func (l *Logger) Error(ctx context.Context, msg string, kvs ...any) {
	l.log(ctx, "error", msg, kvs)
}

func (l *Logger) log(ctx context.Context, level, msg string, kvs []any) {
	if l == nil {
		return
	}
	var b strings.Builder
	b.Grow(128)
	b.WriteString("ts=")
	b.WriteString(time.Now().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level)
	if l.comp != "" {
		b.WriteString(" comp=")
		b.WriteString(l.comp)
	}
	if id := TraceIDFromContext(ctx); !id.IsZero() {
		b.WriteString(" trace=")
		b.WriteString(id.String())
	}
	b.WriteString(" msg=")
	appendLogValue(&b, msg)
	for i := 0; i+1 < len(kvs); i += 2 {
		key, ok := kvs[i].(string)
		if !ok {
			key = fmt.Sprint(kvs[i])
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		switch v := kvs[i+1].(type) {
		case string:
			appendLogValue(&b, v)
		case error:
			appendLogValue(&b, v.Error())
		case int:
			b.WriteString(strconv.Itoa(v))
		case int64:
			b.WriteString(strconv.FormatInt(v, 10))
		case uint64:
			b.WriteString(strconv.FormatUint(v, 10))
		case bool:
			b.WriteString(strconv.FormatBool(v))
		case time.Duration:
			b.WriteString(v.String())
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		default:
			appendLogValue(&b, fmt.Sprint(v))
		}
	}
	b.WriteByte('\n')
	l.out.mu.Lock()
	io.WriteString(l.out.w, b.String())
	l.out.mu.Unlock()
}

// appendLogValue writes a value bare when it is a single clean token,
// quoted otherwise, so lines stay machine-splittable on spaces.
func appendLogValue(b *strings.Builder, s string) {
	if s != "" && !strings.ContainsAny(s, " \t\n\"=") {
		b.WriteString(s)
		return
	}
	b.WriteString(strconv.Quote(s))
}

// defaultLogger is the process-wide logger, on stderr.
var defaultLogger = NewLogger(os.Stderr)

// Log returns the process-wide logger.
func Log() *Logger {
	return defaultLogger
}
