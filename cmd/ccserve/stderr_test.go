package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is an io.Writer the server goroutines and the test can
// share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// records returns every complete line written so far, parsed as JSON; it
// fails the test on a line that is not a JSON object.
func (b *lockedBuffer) records(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	text := b.buf.String()
	b.mu.Unlock()
	var out []map[string]any
	lines := strings.Split(text, "\n")
	for _, line := range lines[:len(lines)-1] { // the last is incomplete or empty
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stderr line is not JSON (%v): %q", err, line)
		}
		out = append(out, rec)
	}
	return out
}

// TestStderrIsJSON runs ccserve with an artifact store through startup,
// one /cure request and shutdown, and checks that every line it wrote to
// stderr is a JSON object.
func TestStderrIsJSON(t *testing.T) {
	var stderr lockedBuffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-j", "1", "-store-dir", t.TempDir()}, &stderr)
	}()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("ccserve did not log its listening address within 10s")
		}
		for _, rec := range stderr.records(t) {
			if rec["msg"] == "ccserve listening" {
				addr, _ = rec["addr"].(string)
			}
		}
	}
	resp, err := http.Post("http://"+addr+"/cure", "application/json",
		strings.NewReader(`{"name":"j.c","source":"int main(void){return 0;}"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /cure = %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}

	msgs := map[string]bool{}
	for _, rec := range stderr.records(t) {
		msg, _ := rec["msg"].(string)
		msgs[msg] = true
	}
	for _, want := range []string{"ccserve listening", "ccserve artifact store", "request", "ccserve shutting down"} {
		if !msgs[want] {
			t.Errorf("stderr has no %q line; messages: %v", want, msgs)
		}
	}
}
