package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"repro/hyperion"
)

// ServeConnLegacy is the historical flush-per-line protocol loop
// (bufio.Scanner + strings.Fields + fmt.Fprintf + Flush after every command),
// kept verbatim modulo the Server receiver as the oracle of the pipelined
// engine's differential test: both loops must produce byte-identical reply
// streams. It lives in a _test.go file so the shipped package has one loop.
func (s *Server) ServeConnLegacy(conn net.Conn) {
	defer conn.Close() //nolint:errsink connection teardown; the peer is gone either way
	r := bufio.NewScanner(conn)
	r.Buffer(make([]byte, s.cfg.MaxLine), s.cfg.MaxLine)
	w := bufio.NewWriter(conn)
	defer w.Flush() //nolint:errsink final best-effort flush on teardown
	for r.Scan() {
		fields := strings.Fields(r.Text())
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		args := fields[1:]
		store := s.current()
		switch cmd {
		case "QUIT":
			fmt.Fprintln(w, "+BYE")
			w.Flush() //nolint:errsink legacy oracle kept verbatim; a dead conn surfaces on the next read
			return
		case "PUT":
			if len(args) != 2 {
				fmt.Fprintln(w, "-ERR usage: PUT key value")
				break
			}
			v, err := strconv.ParseUint(args[1], 10, 64)
			if err != nil {
				fmt.Fprintln(w, "-ERR bad value")
				break
			}
			store.Put([]byte(args[0]), v)
			fmt.Fprintln(w, "+OK")
		case "GET":
			if len(args) != 1 {
				fmt.Fprintln(w, "-ERR usage: GET key")
				break
			}
			if v, ok := store.Get([]byte(args[0])); ok {
				fmt.Fprintf(w, "+%d\n", v)
			} else {
				fmt.Fprintln(w, "-NOTFOUND")
			}
		case "DEL":
			if len(args) != 1 {
				fmt.Fprintln(w, "-ERR usage: DEL key")
				break
			}
			if store.Delete([]byte(args[0])) {
				fmt.Fprintln(w, "+1")
			} else {
				fmt.Fprintln(w, "+0")
			}
		case "HAS":
			if len(args) != 1 {
				fmt.Fprintln(w, "-ERR usage: HAS key")
				break
			}
			if store.Has([]byte(args[0])) {
				fmt.Fprintln(w, "+1")
			} else {
				fmt.Fprintln(w, "+0")
			}
		case "MPUT":
			if len(args) == 0 || len(args)%2 != 0 {
				fmt.Fprintln(w, "-ERR usage: MPUT key value [key value ...]")
				break
			}
			ops := make([]hyperion.Op, 0, len(args)/2)
			bad := false
			for i := 0; i < len(args); i += 2 {
				v, err := strconv.ParseUint(args[i+1], 10, 64)
				if err != nil {
					fmt.Fprintf(w, "-ERR bad value %q at pair %d\n", args[i+1], i/2+1)
					bad = true
					break
				}
				ops = append(ops, hyperion.Op{Kind: hyperion.OpPut, Key: []byte(args[i]), Value: v})
			}
			if bad {
				break
			}
			store.ApplyBatch(ops)
			fmt.Fprintf(w, "+%d\n", len(ops))
		case "MLOAD":
			if len(args) == 0 || len(args)%2 != 0 {
				fmt.Fprintln(w, "-ERR usage: MLOAD key value [key value ...]")
				break
			}
			pairs := make([]hyperion.Pair, 0, len(args)/2)
			bad := false
			for i := 0; i < len(args); i += 2 {
				v, err := strconv.ParseUint(args[i+1], 10, 64)
				if err != nil {
					fmt.Fprintf(w, "-ERR bad value %q at pair %d\n", args[i+1], i/2+1)
					bad = true
					break
				}
				pairs = append(pairs, hyperion.Pair{Key: []byte(args[i]), Value: v})
			}
			if bad {
				break
			}
			store.BulkLoad(pairs)
			fmt.Fprintf(w, "+%d\n", len(pairs))
		case "MGET":
			if len(args) == 0 {
				fmt.Fprintln(w, "-ERR usage: MGET key [key ...]")
				break
			}
			keys := make([][]byte, len(args))
			for i, a := range args {
				keys[i] = []byte(a)
			}
			for _, res := range store.GetBatch(keys) {
				if res.Ok {
					fmt.Fprintf(w, "+%d\n", res.Value)
				} else {
					fmt.Fprintln(w, "-NOTFOUND")
				}
			}
		case "RANGE":
			if len(args) != 2 {
				fmt.Fprintln(w, "-ERR usage: RANGE start n")
				break
			}
			limit, err := strconv.Atoi(args[1])
			if err != nil || limit <= 0 {
				fmt.Fprintln(w, "-ERR bad count")
				break
			}
			count := 0
			store.Range([]byte(args[0]), func(key []byte, value uint64) bool {
				fmt.Fprintf(w, "%s %d\n", key, value)
				count++
				return count < limit
			})
			fmt.Fprintln(w, ".")
		case "SCAN":
			if len(args) < 1 || len(args) > 2 {
				fmt.Fprintln(w, "-ERR usage: SCAN prefix [n]")
				break
			}
			limit := 0
			if len(args) == 2 {
				n, err := strconv.Atoi(args[1])
				if err != nil || n <= 0 {
					fmt.Fprintln(w, "-ERR bad count")
					break
				}
				limit = n
			}
			count := 0
			store.ScanPrefix([]byte(args[0]), func(key []byte, value uint64) bool {
				fmt.Fprintf(w, "%s %d\n", key, value)
				count++
				return limit == 0 || count < limit
			})
			fmt.Fprintln(w, ".")
		case "COUNT":
			if len(args) != 1 {
				fmt.Fprintln(w, "-ERR usage: COUNT prefix")
				break
			}
			fmt.Fprintf(w, "+%d\n", store.CountPrefix([]byte(args[0])))
		case "SAVE":
			if len(args) != 1 {
				fmt.Fprintln(w, "-ERR usage: SAVE path")
				break
			}
			path, err := s.snapshotPath(args[0])
			if err != nil {
				fmt.Fprintf(w, "-ERR save: %v\n", err)
				break
			}
			saved, err := store.SaveFile(path)
			if err != nil {
				fmt.Fprintf(w, "-ERR save: %v\n", err)
				break
			}
			fmt.Fprintf(w, "+%d\n", saved)
		case "RESTORE":
			if len(args) != 1 {
				fmt.Fprintln(w, "-ERR usage: RESTORE path")
				break
			}
			path, err := s.snapshotPath(args[0])
			if err != nil {
				fmt.Fprintf(w, "-ERR restore: %v\n", err)
				break
			}
			restored, err := hyperion.LoadFile(path, s.cfg.Options)
			if err != nil {
				fmt.Fprintf(w, "-ERR restore: %v\n", err)
				break
			}
			// Count before publishing the store: other connections may
			// mutate it the moment the pointer is swapped.
			n := restored.Len()
			s.swapStore(restored)
			fmt.Fprintf(w, "+%d\n", n)
		case "LEN":
			fmt.Fprintf(w, "+%d\n", store.Len())
		case "STATS":
			st := store.Stats()
			ms := store.MemoryStats()
			fmt.Fprintf(w, "+keys=%d containers=%d embedded=%d pc=%d deltas=%d footprint_bytes=%d\n",
				st.Keys, st.Containers, st.EmbeddedContainers, st.PathCompressed, st.DeltaEncodedNodes, ms.Footprint)
		default:
			fmt.Fprintln(w, "-ERR unknown command")
		}
		w.Flush() //nolint:errsink legacy oracle kept verbatim; a dead conn surfaces on the next read
	}
	// Scan returning false is clean EOF only when Err is nil. A protocol
	// line exceeding the scanner buffer (easy to hit with a large MLOAD)
	// surfaces as bufio.ErrTooLong — tell the client before closing instead
	// of silently dropping the connection.
	if err := r.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			fmt.Fprintln(w, "-ERR line too long")
		} else {
			s.logf("read %v: %v", conn.RemoteAddr(), err)
		}
		w.Flush() //nolint:errsink legacy oracle kept verbatim; a dead conn surfaces on the next read
	}
}
