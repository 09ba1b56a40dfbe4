package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"gocured"
	"gocured/internal/core"
	"gocured/internal/corpus"
	"gocured/internal/infer"
	"gocured/internal/interp"
)

// expectedJSON pins the workload: each corpus program's source digest and
// its reference output at default scale. writeExpected produces it once,
// with the tree walker on the uninstrumented program, so the VM path being
// timed is never its own reference.
//
//go:embed expected.json
var expectedJSON []byte

type expectedRun struct {
	Name         string `json:"name"`
	SourceSHA256 string `json:"source_sha256"`
	StdoutSHA256 string `json:"stdout_sha256"`
	ExitCode     int    `json:"exit_code"`
	Trapped      bool   `json:"trapped"`
}

type expectedFile struct {
	Reference string        `json:"reference"`
	Programs  []expectedRun `json:"programs"`
}

// benchProgram is one corpus program as the workloads use it.
type benchProgram struct {
	name string
	file string
	src  string
	opts gocured.Options
	want expectedRun
}

// editMarker is where the canonical one-line edit of the artifact-store
// measurement goes: a dead statement spliced into one function body on an
// existing line, so no other function's fingerprint shifts.
const editMarker = "int i;"

func (p *benchProgram) editable() bool { return strings.Contains(p.src, editMarker) }

// edited returns the source with the one-line edit carrying constant n.
func (p *benchProgram) edited(n int) string {
	return strings.Replace(p.src, editMarker, fmt.Sprintf("int i; if (0) { i = %d; }", n), 1)
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// loadPrograms returns the corpus programs with their reference outputs,
// failing if any source no longer matches its pinned digest: an edited
// corpus program changes the workload, so it must not pass silently.
func loadPrograms() ([]*benchProgram, error) {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return bindPrograms(exp)
}

func bindPrograms(exp expectedFile) ([]*benchProgram, error) {
	want := map[string]expectedRun{}
	for _, e := range exp.Programs {
		want[e.Name] = e
	}
	all := corpus.All()
	if len(all) != len(exp.Programs) {
		return nil, fmt.Errorf("corpus has %d programs, expected.json pins %d", len(all), len(exp.Programs))
	}
	var out []*benchProgram
	for _, p := range all {
		e, ok := want[p.Name]
		if !ok {
			return nil, fmt.Errorf("corpus program %s is not pinned in expected.json", p.Name)
		}
		if got := sha256Hex(p.Source); got != e.SourceSHA256 {
			return nil, fmt.Errorf("corpus program %s changed (source sha256 %s, pinned %s)", p.Name, got, e.SourceSHA256)
		}
		out = append(out, &benchProgram{
			name: p.Name,
			file: p.Name + ".c",
			src:  p.Source,
			opts: gocured.Options{TrustBadCasts: p.TrustBadCasts},
			want: e,
		})
	}
	return out, nil
}

// matches reports whether a run produced the reference output.
func (p *benchProgram) matches(stdout string, exit int, trapped bool) bool {
	return exit == p.want.ExitCode && trapped == p.want.Trapped && sha256Hex(stdout) == p.want.StdoutSHA256
}

// writeExpected computes the reference outputs with the tree walker on the
// uninstrumented program and writes them to path.
func writeExpected(path string) error {
	exp := expectedFile{Reference: "tree-walker run of the uninstrumented program at default scale"}
	for _, p := range corpus.All() {
		u, err := core.Build(p.Name+".c", p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts})
		if err != nil {
			return fmt.Errorf("build %s: %w", p.Name, err)
		}
		out, err := u.RunRaw(interp.PolicyNone, interp.Config{Backend: interp.BackendTree})
		if err != nil {
			return fmt.Errorf("run %s: %w", p.Name, err)
		}
		exp.Programs = append(exp.Programs, expectedRun{
			Name:         p.Name,
			SourceSHA256: sha256Hex(p.Source),
			StdoutSHA256: sha256Hex(out.Stdout),
			ExitCode:     out.ExitCode,
			Trapped:      out.Trap != nil,
		})
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// passOrder returns the seeded program order of one pass.
func passOrder(rng *rand.Rand, progs []*benchProgram) []*benchProgram {
	out := make([]*benchProgram, len(progs))
	for i, j := range rng.Perm(len(progs)) {
		out[i] = progs[j]
	}
	return out
}
