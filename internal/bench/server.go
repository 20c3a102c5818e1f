package bench

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/hyperion"
	"repro/internal/server"
)

// This file implements the server experiment: end-to-end ops/s and allocs/op
// of the network front-end (the pipelined byte-level engine, ServeConn) over
// a grid of transport × command mix × connections × pipeline depth. The
// engine frames and tokenizes in place, defers the flush to the end of each
// buffered burst, and coalesces GET/PUT runs into the store's batch layer —
// so throughput grows along the depth axis. Every row records GOMAXPROCS so
// readers can attribute the numbers. (The retired comparison against the
// flush-per-line loop is recorded in DESIGN.md.)
//
// The "mixed" mix alternates GET and PUT per line, capping every coalescing
// run at one op: it isolates what framing + deferred flush buy on their own,
// while "get"/"put" additionally exercise the batch coalescing.

// Server mix identifiers.
const (
	ServerMixGet   = "get"   // 100% GET of preloaded keys (coalesces into GetBatch)
	ServerMixPut   = "put"   // 100% overwrite PUT (coalesces into ApplyBatch)
	ServerMixMixed = "mixed" // alternating GET/PUT (runs of 1: framing gains only)
)

// ServerRow is one (transport, mix, conns, depth) measurement.
type ServerRow struct {
	// Transport is "pipe" (in-memory net.Pipe, a synchronous rendezvous per
	// read/write pair) or "tcp" (loopback TCP through the kernel).
	Transport string `json:"transport"`
	// Engine is always "pipelined" (ServeConn); the column predates the
	// retirement of the flush-per-line loop and keeps the schema stable.
	Engine string `json:"engine"`
	Mix    string `json:"mix"`
	Conns  int    `json:"conns"`
	// Depth is the pipeline depth: commands written per client burst before
	// the client reads the replies.
	Depth      int     `json:"depth"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Ops        int64   `json:"ops"`
	Seconds    float64 `json:"seconds"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// AllocsPerOp is heap allocations per op over the timed phase, counted
	// across all goroutines (runtime malloc counters): server framing,
	// dispatch and reply path plus the allocation-free client harness.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ServerResult is the full server experiment.
type ServerResult struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Keys is the preloaded store size every row runs against.
	Keys int `json:"keys"`
	// Skipped lists transports that could not run (e.g. no loopback TCP).
	Skipped []string    `json:"skipped,omitempty"`
	Rows    []ServerRow `json:"rows"`
}

// serverDefaults fills the zero-valued server knobs of cfg.
func serverDefaults(cfg Config) Config {
	if cfg.ServerKeys <= 0 {
		cfg.ServerKeys = 100_000
	}
	if cfg.ServerOps <= 0 {
		cfg.ServerOps = 100_000
	}
	if len(cfg.ServerConns) == 0 {
		cfg.ServerConns = []int{1, 4}
	}
	if len(cfg.ServerDepths) == 0 {
		cfg.ServerDepths = []int{1, 16, 64, 256}
	}
	return cfg
}

const serverValueStride = 7919 // prime: unsorted key rotation, no bulk-divert

// serverKey formats the i-th preloaded key.
func serverKey(i int) []byte {
	return fmt.Appendf(nil, "key-%06d", i)
}

// newLoadedServer builds a server whose store holds pairs (sorted: the
// preload goes through the bulk path).
func newLoadedServer(pairs []hyperion.Pair) *server.Server {
	opts := hyperion.DefaultOptions()
	srv := server.New(server.Config{Options: opts, Logf: func(string, ...any) {}})
	srv.Store().BulkLoad(pairs)
	return srv
}

// buildBlock prebuilds one pipeline burst of depth commands for one client.
func buildBlock(mix string, depth, keys, offset int) []byte {
	var block []byte
	for j := 0; j < depth; j++ {
		i := (offset + j*serverValueStride) % keys
		put := mix == ServerMixPut || (mix == ServerMixMixed && j%2 == 1)
		if put {
			block = fmt.Appendf(block, "PUT key-%06d %d\n", i, i%1000)
		} else {
			block = fmt.Appendf(block, "GET key-%06d\n", i)
		}
	}
	return block
}

// serverClient is one measurement connection with its prebuilt burst and
// reusable read buffer — the client half of every exchange is allocation-free
// so the allocs/op column is attributable to the server path under test.
type serverClient struct {
	conn  net.Conn
	block []byte
	depth int
	buf   []byte
}

// exchange writes one burst and reads until every reply line arrived.
func (c *serverClient) exchange() error {
	if _, err := c.conn.Write(c.block); err != nil {
		return err
	}
	need := c.depth
	for need > 0 {
		n, err := c.conn.Read(c.buf)
		if err != nil {
			return err
		}
		need -= bytes.Count(c.buf[:n], []byte{'\n'})
	}
	return nil
}

// measureServerRow runs one grid cell: conns clients exchanging bursts of
// depth commands until ~totalOps ops have been served, with GC-stable malloc
// accounting around the timed phase (one untimed warm-up burst per client
// lets scratch arenas and read buffers reach steady state first).
func measureServerRow(transport string, dial func() (net.Conn, error), mix string, conns, depth, totalOps, keys int) (ServerRow, error) {
	row := ServerRow{
		Transport:  transport,
		Engine:     "pipelined",
		Mix:        mix,
		Conns:      conns,
		Depth:      depth,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	clients := make([]*serverClient, conns)
	for i := range clients {
		conn, err := dial()
		if err != nil {
			return row, err
		}
		defer conn.Close() //nolint:errsink bench client teardown
		clients[i] = &serverClient{
			conn:  conn,
			block: buildBlock(mix, depth, keys, i*271),
			depth: depth,
			buf:   make([]byte, 64<<10),
		}
	}
	blocks := totalOps / conns / depth
	if blocks < 1 {
		blocks = 1
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	runAll := func(blocks int) {
		for _, c := range clients {
			wg.Add(1)
			go func(c *serverClient) {
				defer wg.Done()
				for b := 0; b < blocks; b++ {
					if err := c.exchange(); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}

	runAll(1) // warm-up
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	runAll(blocks)
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if firstErr != nil {
		return row, firstErr
	}

	row.Ops = int64(blocks) * int64(depth) * int64(conns)
	row.Seconds = sec
	if sec > 0 {
		row.OpsPerSec = float64(row.Ops) / sec
	}
	row.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(row.Ops)
	return row, nil
}

// RunServer measures the transport × mix × conns × depth grid.
func RunServer(cfg Config) ServerResult {
	cfg = serverDefaults(cfg)
	res := ServerResult{
		ID: "server",
		Title: fmt.Sprintf("Server: pipelined byte-level engine (%d preloaded keys, ~%d ops/row)",
			cfg.ServerKeys, cfg.ServerOps),
		Keys: cfg.ServerKeys,
	}

	pairs := make([]hyperion.Pair, cfg.ServerKeys)
	for i := range pairs {
		pairs[i] = hyperion.Pair{Key: serverKey(i), Value: uint64(i % 1000)}
	}

	for _, transport := range []string{"pipe", "tcp"} {
		if transport == "tcp" {
			if ln, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
				res.Skipped = append(res.Skipped, fmt.Sprintf("tcp: %v", err))
				continue
			} else {
				ln.Close() //nolint:errsink probe listener, opened only to test bindability
			}
		}
		for _, mix := range []string{ServerMixGet, ServerMixPut, ServerMixMixed} {
			for _, conns := range cfg.ServerConns {
				for _, depth := range cfg.ServerDepths {
					// A fresh preloaded server per row keeps rows independent
					// of each other's scratch state.
					srv := newLoadedServer(pairs)
					var dial func() (net.Conn, error)
					var cleanup func()
					if transport == "pipe" {
						dial = func() (net.Conn, error) {
							sv, cl := net.Pipe()
							go srv.ServeConn(sv)
							return cl, nil
						}
						cleanup = func() {}
					} else {
						ln, err := net.Listen("tcp", "127.0.0.1:0")
						if err != nil {
							panic(fmt.Sprintf("bench: loopback listen vanished mid-run: %v", err))
						}
						go func() {
							for {
								c, err := ln.Accept()
								if err != nil {
									return
								}
								go srv.ServeConn(c)
							}
						}()
						dial = func() (net.Conn, error) {
							return net.Dial("tcp", ln.Addr().String())
						}
						cleanup = func() { ln.Close() } //nolint:errsink bench listener teardown
					}
					row, err := measureServerRow(transport, dial, mix, conns, depth, cfg.ServerOps, cfg.ServerKeys)
					cleanup()
					if err != nil {
						panic(fmt.Sprintf("bench: server row %s/%s c%d d%d: %v", transport, mix, conns, depth, err))
					}
					res.Rows = append(res.Rows, row)
				}
			}
		}
	}
	return res
}
