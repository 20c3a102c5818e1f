package main

import (
	"fmt"
	"os"
	"testing"
)

// smokeConfig is a 1 %-scale configuration writing under out/ (ignored by git).
var testServerBin string

func TestMain(m *testing.M) {
	code := func() int {
		defer runCleanups()
		if err := os.MkdirAll("out", 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg := &config{outDir: "out"}
		if err := ensureServer(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		testServerBin = cfg.serverBin
		return m.Run()
	}()
	os.Exit(code)
}

func smokeConfig(seed uint64) *config {
	return &config{seed: seed, seconds: 8, scale: 0.01, outDir: "out", serverBin: testServerBin}
}
