// Command benchmark is the repository's one benchmark: five workloads that
// between them put every layer of the Hyperion store on the critical path,
// each checked against a shadow model, plus a per-layer ladder that times the
// public functions of every layer from outside.
//
//	bash benchmark/run.sh --workload embed-get-ngram --seed 1 --seconds 10 --trace 0
//
// prints the end-to-end metrics (--trace 1: the per-layer metrics) by name and
// unit and, as its last line, the result object BENCHMARK.json describes. See
// README.md for the workloads, the metric glossary and -check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// record is one run as kept in result files: the contract's result object
// plus what is needed to compare and to reproduce it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Scale    string `json:"scale"`
	result
	WindowRate [][]float64 `json:"window_ops_per_s,omitempty"` // per caller, per rate window
	Env        environment `json:"env"`
}

type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	OutFS      string `json:"out_filesystem"` // filesystem holding the WAL and snapshot scratch dirs
	Commit     string `json:"git_commit"`
	Time       string `json:"time"`
}

func readEnvironment(outDir string) environment {
	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Kernel: "unknown", OutFS: "unknown", Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(outDir, &st); err == nil {
		names := map[int64]string{0xef53: "ext2/3/4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x6969: "nfs"}
		if env.OutFS = names[int64(st.Type)]; env.OutFS == "" {
			env.OutFS = fmt.Sprintf("magic 0x%x", uint64(st.Type))
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out)) // "unknown" in a checkout that is not a repository
	}
	return env
}

func main() {
	code, err := run(os.Args[1:])
	runCleanups()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "all", "workload name, or all")
		seed      = fs.Uint64("seed", 1, "seed of every generated input")
		secs      = fs.Int("seconds", 8, "nominal length of a timed phase; fixes its op count")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ladder")
		scale     = fs.String("scale", "full", "full, or smoke (1 % sizes, for tests)")
		outDir    = fs.String("out", "out", "directory for logs, traces, result files and scratch data")
		serverBin = fs.String("server-bin", "", "hyperion-server binary (default: go build it into -out)")
		jsonPath  = fs.String("json", "", "append this invocation's runs to a result file (input of -check)")
		check     = fs.Bool("check", false, "compare two result files: -check A.json B.json")
		spec      = fs.String("spec", "", "BENCHMARK.json for -check (default: found next to the benchmark directory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if *check {
		if fs.NArg() != 2 {
			return 2, errors.New("-check needs two result files")
		}
		return runCheck(*spec, fs.Arg(0), fs.Arg(1))
	}
	cfg := &config{seed: *seed, seconds: *secs, outDir: *outDir, serverBin: *serverBin, scale: 1}
	switch {
	case *scale == "smoke":
		cfg.scale = 0.01
	case *scale != "full":
		return 2, fmt.Errorf("unknown -scale %q", *scale)
	}
	if *secs < 1 || *trace < 0 || *trace > 1 {
		return 2, errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	// The load model is two callers beside a two-thread server: on one CPU the
	// numbers would measure the scheduler.
	if runtime.NumCPU() < workers {
		return 1, fmt.Errorf("needs at least %d CPUs, this machine has %d", workers, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(workers)
	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return 1, err
	}
	sweepStale(cfg.outDir)
	cleanupOnSignal()
	if err := ensureServer(cfg); err != nil {
		return 1, err
	}
	env := readEnvironment(cfg.outDir)
	code := 0
	for _, w := range todo {
		rec, err := runOne(cfg, w, *trace, *scale, env)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		if *jsonPath != "" {
			if err := appendRecord(*jsonPath, rec); err != nil {
				return 1, err
			}
		}
		if !rec.Correct {
			code = 1
		}
		runCleanups() // this workload's children and scratch dirs
	}
	return code, nil
}

// runOne runs one workload, end to end or through the ladder, prints the
// metrics and the contract's result line, and files the record under -out.
func runOne(cfg *config, w *workload, trace int, scale string, env environment) (*record, error) {
	var res *result
	var err error
	if trace == 1 {
		res, err = runLadder(cfg, w)
	} else {
		res, err = w.run(cfg)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	rec := &record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace, Scale: scale, result: *res, WindowRate: res.windowRate, Env: env}
	fmt.Printf("# %s seed=%d seconds=%d trace=%d scale=%s gomaxprocs=%d\n", w.name, cfg.seed, cfg.seconds, trace, scale, env.GOMAXPROCS)
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Printf("%-36s %16.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("%-36s %16g of %d attempted\n", "failed", float64(res.Failed), res.Attempted)
	file := filepath.Join(cfg.outDir, fmt.Sprintf("%s.trace%d.json", w.name, trace))
	if data, err := json.MarshalIndent(rec, "", "  "); err != nil {
		return nil, err
	} else if err := os.WriteFile(file, data, 0o644); err != nil {
		return nil, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return rec, nil
}

// appendRecord adds rec to the JSON array in path (created when missing).
func appendRecord(path string, rec *record) error {
	var recs []*record
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(append(recs, rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ensureServer builds cmd/hyperion-server into the output directory unless a
// binary was given. Untimed: no metric includes a build.
func ensureServer(cfg *config) error {
	if cfg.serverBin == "" {
		cfg.serverBin = filepath.Join(cfg.outDir, "hyperion-server")
		cmd := exec.Command("go", "build", "-o", cfg.serverBin, "repro/cmd/hyperion-server")
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("go build repro/cmd/hyperion-server (run from the benchmark directory, or pass -server-bin): %w", err)
		}
	}
	abs, err := filepath.Abs(cfg.serverBin)
	if err != nil {
		return err
	}
	if _, err := os.Stat(abs); err != nil {
		return err
	}
	cfg.serverBin = abs
	return nil
}
