package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"gocured"
)

// ccserveBin is a ccserve built once for the serve workloads' tests.
var ccserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ccserveBin = filepath.Join(dir, "ccserve")
	if out, err := exec.Command("go", "build", "-o", ccserveBin, "gocured/cmd/ccserve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build ccserve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinySet is a handful of quick programs, two of them with an edit point,
// so each workload runs at a tiny size.
var tinySet = []string{"olden-treeadd", "ptrdist-yacr", "ftpd", "spec-li"}

func subset(t *testing.T, progs []*benchProgram, names ...string) []*benchProgram {
	t.Helper()
	byName := map[string]*benchProgram{}
	for _, p := range progs {
		byName[p.name] = p
	}
	var out []*benchProgram
	for _, n := range names {
		p := byName[n]
		if p == nil {
			t.Fatalf("no corpus program %s", n)
		}
		out = append(out, p)
	}
	return out
}

// tinyConfig runs a workload for a second: enough traced pairs for the
// replica guard's time check, little enough for a test.
func tinyConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 1, trace: trace,
		root: "..", ccserve: ccserveBin, outDir: t.TempDir()}
}

func loadAll(t *testing.T) []*benchProgram {
	t.Helper()
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// size: every op must pass its check and the report must carry exactly
// the metrics BENCHMARK.json lists for its mode.
func TestWorkloadsTiny(t *testing.T) {
	progs := subset(t, loadAll(t), tinySet...)
	for _, w := range []string{"compile", "execute", "serve-hit", "serve-edit"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				rep, notes, err := run(tinyConfig(t, w, trace), progs)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%v", rep.Correct, rep.Attempted, rep.Failed, notes)
				}
				want := endToEndMetrics
				if trace {
					want = perLayerMetrics()
				}
				if len(rep.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
					}
				}
			})
		}
	}
}

// TestCorruptedReferenceFails checks that a wrong expected output fails
// the ops that produce it, on both library workloads.
func TestCorruptedReferenceFails(t *testing.T) {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	for i := range exp.Programs {
		if exp.Programs[i].Name == "olden-treeadd" {
			exp.Programs[i].StdoutSHA256 = sha256Hex("not the program's output")
		}
	}
	progs, err := bindPrograms(exp)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"execute", "compile"} {
		rep, _, err := run(tinyConfig(t, w, false), subset(t, progs, "olden-treeadd"))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted reference passed: correct=%v failed=%d", w, rep.Correct, rep.Failed)
		}
	}
}

// TestEditedSourceFailsPin checks that a corpus source that no longer
// matches its pinned digest stops the benchmark.
func TestEditedSourceFailsPin(t *testing.T) {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	exp.Programs[0].SourceSHA256 = sha256Hex("another source")
	if _, err := bindPrograms(exp); err == nil {
		t.Fatal("a changed corpus source passed the pin check")
	}
}

// TestShedCountsAsFailed checks that a 429 from the server is a failed op.
func TestShedCountsAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full","code":"too_many_requests"}`)
	}))
	defer srv.Close()
	p := loadAll(t)[0]
	g := &loadgen{
		client: newClient(2),
		url:    srv.URL + "/cure",
		conns:  2,
		next:   func(int) *request { return &request{p: p, body: cureBody(p, p.src)} },
		check:  func(*request, *reply) error { return nil },
	}
	defer g.client.CloseIdleConnections()
	o := &outcome{}
	lat := o.tally(g.run(time.Now().Add(time.Minute), 6, false))
	if o.attempted != 6 || o.failed != 6 || len(lat) != 0 {
		t.Fatalf("attempted=%d failed=%d latencies=%d, want 6 attempted, all failed", o.attempted, o.failed, len(lat))
	}
}

// TestReplicaGuard checks the traced replica against gocured on every
// corpus program: the same Stats, and a run with the same output and
// counters as Program.Run.
func TestReplicaGuard(t *testing.T) {
	for _, p := range loadAll(t) {
		prog, err := gocured.Compile(p.file, p.src, p.opts)
		if err != nil {
			t.Fatal(err)
		}
		u, err := replicaBuild(newRecorder(), p)
		if err != nil {
			t.Fatal(err)
		}
		if replicaStats(u) != prog.Stats() {
			t.Errorf("%s: replica Stats %+v, gocured %+v", p.name, replicaStats(u), prog.Stats())
		}
		res, err := prog.Run(gocured.ModeCured, gocured.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := replicaRun(newRecorder(), u, replicaCode(nil, u))
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameRun(out, res); diff != "" {
			t.Errorf("%s: replica run differs in %s", p.name, diff)
		}
		if !p.matches(out.Stdout, out.ExitCode, out.Trap != nil) {
			t.Errorf("%s: replica run does not match the reference output", p.name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// the program prints, in the same order and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics())
}
