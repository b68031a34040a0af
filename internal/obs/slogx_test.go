package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "text", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("run accepted", "run", "r000001")
	if out := buf.String(); !strings.Contains(out, "msg=\"run accepted\"") || !strings.Contains(out, "run=r000001") {
		t.Errorf("text output = %q", out)
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("run accepted", "run", "r000001")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json output not one JSON object: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "run accepted" || rec["run"] != "r000001" {
		t.Errorf("json record = %v", rec)
	}

	if _, err := NewLogger(&buf, "xml", slog.LevelInfo); err == nil {
		t.Error("unknown format accepted")
	}
	// "" defaults to text.
	if _, err := NewLogger(&buf, "", slog.LevelInfo); err != nil {
		t.Errorf("empty format rejected: %v", err)
	}
}

func TestNewLoggerLevel(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "text", slog.LevelWarn)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("quiet")
	lg.Warn("loud")
	out := buf.String()
	if strings.Contains(out, "quiet") || !strings.Contains(out, "loud") {
		t.Errorf("level filtering broken: %q", out)
	}
}
