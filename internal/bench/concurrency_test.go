package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/hyperion"
)

func TestRunConcurrencyGrid(t *testing.T) {
	cfg := tinyConfig()
	cfg.ConcKeys = 20000
	cfg.ConcBatch = 256
	cfg.ConcArenas = []int{1, 8}
	cfg.ConcWorkers = []int{1, 4}
	res := RunConcurrency(cfg)
	// Per (arenas, workers) cell: four mixes.
	if want := len(cfg.ConcArenas) * len(cfg.ConcWorkers) * 4; len(res.Points) != want {
		t.Fatalf("expected %d grid rows, got %d", want, len(res.Points))
	}
	lockMode := hyperion.New(hyperion.DefaultOptions()).ReadLockMode()
	mixes := map[string]int{}
	for _, p := range res.Points {
		if p.OpsPerSec <= 0 {
			t.Fatalf("row %+v has non-positive throughput", p)
		}
		if p.GOMAXPROCS != runtime.GOMAXPROCS(0) || p.NumCPU != runtime.NumCPU() {
			t.Fatalf("row %+v does not record the machine shape", p)
		}
		if p.LockMode != lockMode {
			t.Fatalf("row %+v does not record the build's lock mode", p)
		}
		switch p.Mix {
		case MixWrite:
			if p.ReadFraction != 0 {
				t.Fatalf("write row with read fraction %v", p.ReadFraction)
			}
		case MixRead, MixBatchRead:
			if p.ReadFraction != 1 {
				t.Fatalf("pure-read row with read fraction %v", p.ReadFraction)
			}
		case MixMixed:
			if p.ReadFraction != 0.95 {
				t.Fatalf("95/5 row with read fraction %v", p.ReadFraction)
			}
		default:
			t.Fatalf("row %+v has unknown mix", p)
		}
		mixes[p.Mix]++
	}
	if len(mixes) != 4 {
		t.Fatalf("expected 4 mixes, got %v", mixes)
	}

	var buf bytes.Buffer
	WriteConcurrency(&buf, res)
	out := buf.String()
	for _, want := range []string{"arenas", "workers", "mix", "ops/s", "lock mode", "gomaxprocs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered concurrency grid misses %q:\n%s", want, out)
		}
	}
}

func TestRunConcurrencyDefaultsFilled(t *testing.T) {
	cfg := concurrencyDefaults(Config{})
	if cfg.ConcKeys <= 0 || cfg.ConcBatch <= 0 || len(cfg.ConcArenas) == 0 || len(cfg.ConcWorkers) == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}

func TestWriteJSONFile(t *testing.T) {
	cfg := tinyConfig()
	cfg.ConcKeys = 5000
	cfg.ConcBatch = 128
	cfg.ConcArenas = []int{4}
	cfg.ConcWorkers = []int{2}
	res := RunConcurrency(cfg)
	dir := t.TempDir()
	path, err := WriteJSONFile(dir, res.ID, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_concurrency.json") {
		t.Fatalf("unexpected path %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Experiment string `json:"experiment"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Result     struct {
			Keys   int `json:"keys"`
			Points []struct {
				LockMode  string  `json:"lock_mode"`
				Mix       string  `json:"mix"`
				OpsPerSec float64 `json:"ops_per_sec"`
				GMP       int     `json:"gomaxprocs"`
				NumCPU    int     `json:"numcpu"`
			} `json:"points"`
		} `json:"result"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if env.Experiment != "concurrency" || env.GOMAXPROCS <= 0 {
		t.Fatalf("bad envelope: %+v", env)
	}
	if env.Result.Keys != cfg.ConcKeys || len(env.Result.Points) != 4 {
		t.Fatalf("bad result payload: keys=%d points=%d", env.Result.Keys, len(env.Result.Points))
	}
	for _, p := range env.Result.Points {
		if p.LockMode == "" || p.Mix == "" || p.OpsPerSec <= 0 || p.GMP <= 0 || p.NumCPU <= 0 {
			t.Fatalf("row missing attribution fields: %+v", p)
		}
	}
}
