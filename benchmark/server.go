package main

// The two server workloads: a real hyperion-server child, two pipelining TCP
// connections from this process.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// serverSpec is what differs between the two server workloads.
type serverSpec struct {
	name string
	gen  int // n-grams generated for the preload at full scale
	rate int // timed ops per connection per requested second
	wal  bool
	// Repeats behind the setup_s and recovery_s medians (see embedded).
	setups, recoveries int
	stream             func(ks *keySet, seed uint64, conn int) opStream
}

var mixedSpec = &serverSpec{
	name: "server-mixed-tcp", gen: mixedNgrams, rate: mixedOpsPerSecond, setups: 3, recoveries: 5,
	stream: func(ks *keySet, seed uint64, conn int) opStream { return newMixedStream(ks, seed, conn) },
}

var durableSpec = &serverSpec{
	name: "server-durable-put", gen: durableNgrams, rate: durableOpsPerSecond, wal: true, setups: 5, recoveries: 3,
	stream: func(ks *keySet, seed uint64, conn int) opStream {
		return &durableStream{ks: ks, conn: conn, seed: seed}
	},
}

// runFull is the workload's end-to-end run.
func (sp *serverSpec) runFull(cfg *config) (*result, error) {
	res, _, err := sp.run(cfg, cfg.timedOps(sp.rate), sp.setups, sp.recoveries)
	return res, err
}

// wireNgrams is the preload key set of both server workloads.
func wireNgrams(n int, seed uint64) *keySet {
	return ngramKeys(n, seed).mapped(wireSafe).sortedUnique()
}

// procUsage is the server child's and this process's resource use over a
// timed phase (the proc.* and loadgen.* per-layer metrics).
type procUsage struct {
	serverCPU, loadgenCPU time.Duration
	ctxSwitches           int64
	peakRSS               int64
	ops                   int64
}

// run executes the workload: set-up (spawn + preload + probe) `setups` times,
// warm-up, the timed phase of n ops per connection, the footprint reading, and
// `recoveries` restarts.
func (sp *serverSpec) run(cfg *config, n, setups, recoveries int) (*result, procUsage, error) {
	var usage procUsage
	res := newResult()
	dir, err := cfg.tempDir(sp.name)
	if err != nil {
		return nil, usage, err
	}
	walDir := filepath.Join(dir, "wal")
	args := []string{"-snapshot-dir", dir}
	if sp.wal {
		args = append(args, "-wal-dir", walDir, "-fsync", "interval")
	}

	var (
		ks     = wireNgrams(cfg.scaled(sp.gen), cfg.seed)
		srv    *serverProc
		ctl    *client
		setupT = make([]time.Duration, setups)
	)
	for i := range setupT {
		if srv != nil {
			ctl.close()
			srv.kill()
			if err := os.RemoveAll(walDir); err != nil {
				return nil, usage, err
			}
		}
		t0 := time.Now()
		if srv, err = startServer(cfg, sp.name, args...); err != nil {
			return nil, usage, err
		}
		if ctl, err = srv.connect(); err != nil {
			return nil, usage, err
		}
		stored, err := ctl.mload(ks, func(i int) uint64 { return valueOf(cfg.seed, i, 0) })
		if err != nil {
			return nil, usage, fmt.Errorf("preload: %w", err)
		}
		length, err := ctl.askInt("LEN")
		if err != nil {
			return nil, usage, err
		}
		last, err := ctl.ask("GET " + string(ks.key(ks.len()-1)))
		if err != nil {
			return nil, usage, err
		}
		probe := stored == ks.len() && length == ks.len() && last == "+"+strconv.FormatUint(valueOf(cfg.seed, ks.len()-1, 0), 10)
		setupT[i] = time.Since(t0)
		res.check(probe, "set-up probe: MLOAD stored %d, LEN %d, want %d; last key -> %q", stored, length, ks.len(), last)
	}
	defer ctl.close()
	res.set("setup_s", median(seconds(setupT)), "s")
	res.notef("set-up: %d keys, %d repeats %.3v", ks.len(), setups, seconds(setupT))

	conns := make([]*client, workers)
	streams := make([]opStream, workers)
	for w := range conns {
		if conns[w], err = dial(srv.addr); err != nil {
			return nil, usage, err
		}
		defer conns[w].close()
		streams[w] = sp.stream(ks, cfg.seed, w)
	}
	var before procSample
	var selfBefore time.Duration
	arm := func() (err error) {
		conns[0].corruptIn = cfg.corruptReply
		selfBefore = selfCPU()
		before, err = readProc(srv.cmd.Process.Pid)
		return err
	}
	err = res.phases(cfg, streams, n, burstTail, arm, func(w, n int) (callerStats, error) {
		return driveBursts(conns[w], streams[w], n)
	})
	if err != nil {
		return nil, usage, err
	}
	after, err := readProc(srv.cmd.Process.Pid)
	if err != nil {
		return nil, usage, err
	}
	usage = procUsage{
		serverCPU: after.cpu - before.cpu, loadgenCPU: selfCPU() - selfBefore,
		ctxSwitches: after.ctxSwitches - before.ctxSwitches, peakRSS: after.peakRSS, ops: int64(workers * n),
	}

	want := ks.len()
	for _, st := range streams {
		if d, ok := st.(*durableStream); ok {
			want += len(d.vals)
		}
	}
	length, err := ctl.askInt("LEN")
	if err != nil {
		return nil, usage, err
	}
	res.check(length == want, "LEN = %d after the timed phase, shadow model holds %d", length, want)
	foot, err := ctl.footprint()
	if err != nil {
		return nil, usage, err
	}
	res.set("bytes_per_key", float64(foot)/float64(length), "B")
	if recoveries == 0 {
		srv.kill()
		return res, usage, nil
	}

	// Recovery. Without a WAL the persisted form is a snapshot the server
	// writes on request; with one it is whatever the log holds once every
	// acknowledged write has had its fsync interval.
	restore := ""
	if sp.wal {
		time.Sleep(3 * fsyncInterval * time.Millisecond)
	} else {
		saved, err := ctl.askInt("SAVE final.hyp")
		if err != nil {
			return nil, usage, err
		}
		res.check(saved == want, "SAVE wrote %d keys, want %d", saved, want)
		restore = "RESTORE final.hyp"
	}
	srv.kill()
	if cfg.dropAcked {
		if err := dropLastRecord(walDir); err != nil {
			return nil, usage, err
		}
	}
	times := make([]time.Duration, recoveries)
	var back *client
	for i := range times {
		if srv, err = startServer(cfg, sp.name, args...); err != nil {
			return nil, usage, err
		}
		if back, err = srv.connect(); err != nil {
			return nil, usage, err
		}
		defer back.close()
		if restore != "" {
			if _, err = back.askInt(restore); err != nil {
				return nil, usage, err
			}
		}
		got, err := back.askInt("LEN")
		if err != nil {
			return nil, usage, err
		}
		times[i] = time.Since(srv.start)
		res.check(got == want, "recovered server holds %d keys, want %d", got, want)
		if i < len(times)-1 {
			srv.kill()
		}
	}
	res.set("recovery_s", median(seconds(times)), "s")
	res.notef("recovery: exec -> correct LEN of %d keys, %d repeats %.3v", want, recoveries, seconds(times))
	for _, st := range streams {
		if err := verifyRecovered(back, st, cfg, res); err != nil {
			return nil, usage, err
		}
	}
	srv.kill()
	return res, usage, nil
}

// driveBursts is one connection's closed loop over n ops of its stream, sent
// as bursts of depth requests.
func driveBursts(c *client, st opStream, n int) (callerStats, error) {
	cs := callerStats{samples: make([]uint32, 0, n/depth+1)}
	ops := make([]op, depth)
	every := max(markEvery(n)/depth, 1) * depth
	start := time.Now()
	for done := 0; done < n; done += depth {
		if done%every == 0 && done > 0 {
			cs.marks = append(cs.marks, mark{time.Since(start), int64(done), int64(done)})
		}
		burst := ops[:min(depth, n-done)]
		for i := range burst {
			st.next(&burst[i])
		}
		failed, rtt, err := c.burst(burst)
		if err != nil {
			return cs, err
		}
		cs.failed += int64(failed)
		cs.samples = append(cs.samples, uint32(rtt))
	}
	cs.ops, cs.keys = int64(n), int64(n)
	cs.marks = append(cs.marks, mark{time.Since(start), cs.ops, cs.keys})
	return cs, nil
}

// verifyRecovered checks a sample of a connection's acknowledged writes
// against the recovered server, through depth-sized GET bursts.
func verifyRecovered(c *client, st opStream, cfg *config, res *result) error {
	ops := make([]op, depth)
	sample := cfg.scaled(durableSample) / workers
	check := func(fill func(o *op, i int), total int) error {
		step := max(total/sample, 1)
		n := 0
		for i := 0; i < total; i += step {
			fill(&ops[n], i)
			ops[n].kind = opGet
			if n++; n == depth || i+step >= total {
				failed, _, err := c.burst(ops[:n])
				if err != nil {
					return err
				}
				res.Attempted += int64(n)
				res.Failed += int64(failed)
				n = 0
			}
		}
		return nil
	}
	switch s := st.(type) {
	case *durableStream:
		return check(func(o *op, i int) {
			o.buf = s.keyOf(o.buf[:0], i)
			o.key, o.val = o.buf, s.vals[i]
		}, len(s.vals))
	case *mixedStream:
		return check(func(o *op, i int) {
			k := int(s.own[i])
			o.key, o.val = s.ks.key(k), valueOf(s.seed, k, s.ver[i])
		}, len(s.own))
	}
	return nil
}

// dropLastRecord is the oracle's self-test fault: it removes the tail of the
// largest WAL segment, so one acknowledged write is lost.
func dropLastRecord(walDir string) error {
	segs, err := filepath.Glob(filepath.Join(walDir, "*.seg"))
	if err != nil {
		return err
	}
	var victim string
	var size int64
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil && fi.Size() > size {
			victim, size = s, fi.Size()
		}
	}
	if victim == "" {
		return fmt.Errorf("no WAL segment to damage in %s", walDir)
	}
	return os.Truncate(victim, size-4)
}
