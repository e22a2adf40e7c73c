package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity. Lines below a logger's level are dropped.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	// LevelOff silences a logger entirely.
	LevelOff
)

// ParseLevel maps a -log-level flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none", "silent":
		return LevelOff, nil
	}
	return LevelOff, fmt.Errorf("unknown log level %q (want debug|info|warn|error|off)", s)
}

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "off"
}

// Logger writes structured key=value lines:
//
//	ts=2026-08-07T12:00:00.000Z level=warn msg="worker dead" worker=http://... misses=3
//
// A nil *Logger drops everything, so call sites never need a nil check.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
}

// NewLogger builds a logger writing to w at the given level.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level}
}

// Enabled reports whether lines at level would be written. Safe on nil.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level && level < LevelOff
}

// Debug logs at debug level. Safe on nil.
func (l *Logger) Debug(msg string, attrs ...Attr) { l.log(LevelDebug, msg, attrs) }

// Info logs at info level. Safe on nil.
func (l *Logger) Info(msg string, attrs ...Attr) { l.log(LevelInfo, msg, attrs) }

// Warn logs at warn level. Safe on nil.
func (l *Logger) Warn(msg string, attrs ...Attr) { l.log(LevelWarn, msg, attrs) }

// Error logs at error level. Safe on nil.
func (l *Logger) Error(msg string, attrs ...Attr) { l.log(LevelError, msg, attrs) }

func (l *Logger) log(level Level, msg string, attrs []Attr) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(time.Now().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quoteValue(msg))
	for _, a := range attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(quoteValue(a.Value))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	_, _ = io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// quoteValue quotes a value only when it needs it, keeping lines grep-able.
func quoteValue(s string) string {
	if s == "" {
		return `""`
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c == '"' || c == '=' || c == 0x7f {
			return strconv.Quote(s)
		}
	}
	return s
}

// defaultLogger is the process-wide fallback used by components that were
// not handed an explicit logger (e.g. a cluster.Coordinator built deep
// inside the executor). It starts silent; CLIs install a real logger from
// their -log-level flag via SetDefaultLogger.
var defaultLogger atomic.Pointer[Logger]

// SetDefaultLogger installs the process-wide fallback logger.
func SetDefaultLogger(l *Logger) { defaultLogger.Store(l) }

// DefaultLogger returns the process-wide fallback logger; it may be nil
// (silent), which is safe to use directly.
func DefaultLogger() *Logger { return defaultLogger.Load() }
