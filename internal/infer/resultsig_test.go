package infer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// sigOptions are the four option sets TestSummaryGolden composes under,
// with the short labels the digest file uses.
var sigOptions = []struct {
	label string
	opts  Options
}{
	{"default", Options{}},
	{"trust", Options{TrustBadCasts: true}},
	{"nortti", Options{NoRTTI: true}},
	{"splitall", Options{SplitAll: true}},
}

// resultSigDigests renders one "<source> <options> <sha256(resultSig)>"
// line per golden source and option set, sorted.
func resultSigDigests(t *testing.T) string {
	t.Helper()
	var lines []string
	for name, src := range goldenSources(t) {
		for _, o := range sigOptions {
			prog, d := lower(t, name, src)
			sum := sha256.Sum256([]byte(resultSig(Infer(prog, o.opts, d))))
			lines = append(lines, fmt.Sprintf("%s %s %s", name, o.label, hex.EncodeToString(sum[:])))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestResultSigGolden pins the whole-program inference result of every
// golden source: node creation order and types, solved kinds and facts,
// cast classes, stats and split stats. A change to how constraints are
// collected must leave every digest in testdata/resultsig.golden as it is.
func TestResultSigGolden(t *testing.T) {
	path := filepath.Join("testdata", "resultsig.golden")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := strings.Split(strings.TrimSuffix(resultSigDigests(t), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digests, %s has %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest differs from %s:\n got %s\nwant %s", path, got[i], want[i])
		}
	}
}
