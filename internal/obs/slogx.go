package obs

import (
	"fmt"
	"io"
	"log/slog"
)

// NewLogger builds the shared structured logger of the CLIs and the
// campaign daemon: format is "text" (slog text handler) or "json"
// (slog JSON handler, one object per line for CI log pipelines).
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
}
