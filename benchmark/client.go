package main

// A line-protocol client: plain request/reply for control commands and the
// allocation-free pipelined burst the timed phases use.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

type client struct {
	conn net.Conn
	r    *bufio.Reader
	req  []byte // burst under construction
	want []byte // scratch for the reply an op predicts

	bytesIn int64 // reply bytes read so far

	corruptIn int64 // self-test: garble the corruptIn-th reply from now before checking it (0: never)
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *client {
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 256<<10)}
}

func (c *client) close() { c.conn.Close() }

// line reads one reply line without its terminator; the slice is valid until
// the next read.
func (c *client) line() ([]byte, error) {
	l, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("read reply: %w", err)
	}
	c.bytesIn += int64(len(l))
	return l[:len(l)-1], nil
}

// ask sends one command and returns its one-line reply.
func (c *client) ask(cmd string) (string, error) {
	if _, err := c.conn.Write(append([]byte(cmd), '\n')); err != nil {
		return "", fmt.Errorf("send %q: %w", firstWord(cmd), err)
	}
	l, err := c.line()
	return string(l), err
}

// askInt sends a command whose reply is "+<n>".
func (c *client) askInt(cmd string) (int, error) {
	reply, err := c.ask(cmd)
	if err != nil {
		return 0, err
	}
	n, perr := strconv.Atoi(strings.TrimPrefix(reply, "+"))
	if perr != nil || !strings.HasPrefix(reply, "+") {
		return 0, fmt.Errorf("%s: unexpected reply %q", firstWord(cmd), reply)
	}
	return n, nil
}

func firstWord(s string) string {
	w, _, _ := strings.Cut(s, " ")
	return w
}

// footprint reads footprint_bytes out of STATS.
func (c *client) footprint() (int64, error) {
	reply, err := c.ask("STATS")
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(reply, "footprint_bytes=")
	if !ok {
		return 0, fmt.Errorf("STATS: no footprint_bytes in %q", reply)
	}
	return strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
}

// scan sends SCAN prefix and returns how many "key value" lines came back
// before the terminating ".".
func (c *client) scan(prefix string) (int, error) {
	if _, err := c.conn.Write([]byte("SCAN " + prefix + "\n")); err != nil {
		return 0, fmt.Errorf("send SCAN: %w", err)
	}
	for n := 0; ; n++ {
		l, err := c.line()
		if err != nil {
			return n, err
		}
		if string(l) == "." {
			return n, nil
		}
		if len(l) > 0 && l[0] == '-' {
			return n, fmt.Errorf("SCAN: %s", l)
		}
	}
}

// mload sends the pairs (key i -> value(i)) as MLOAD lines of mloadLine pairs,
// one line in flight at a time, and returns how many the server stored.
func (c *client) mload(ks *keySet, value func(i int) uint64) (int, error) {
	stored := 0
	for lo := 0; lo < ks.len(); lo += mloadLine {
		c.req = append(c.req[:0], "MLOAD"...)
		for i := lo; i < min(lo+mloadLine, ks.len()); i++ {
			c.req = append(append(c.req, ' '), ks.key(i)...)
			c.req = strconv.AppendUint(append(c.req, ' '), value(i), 10)
		}
		n, err := c.askInt(string(c.req))
		if err != nil {
			return stored, err
		}
		stored += n
	}
	return stored, nil
}

// burst writes ops as one pipelined burst of GET/PUT lines, reads the
// replies, and returns how many differed from what the ops predicted and the
// time from the write to the last reply parsed.
func (c *client) burst(ops []op) (failed int, rtt time.Duration, err error) {
	c.req = c.req[:0]
	for i := range ops {
		o := &ops[i]
		if o.kind == opPut {
			c.req = append(append(c.req, "PUT "...), o.key...)
			c.req = strconv.AppendUint(append(c.req, ' '), o.val, 10)
		} else {
			c.req = append(append(c.req, "GET "...), o.key...)
		}
		c.req = append(c.req, '\n')
	}
	t0 := time.Now()
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, 0, fmt.Errorf("write burst: %w", err)
	}
	for i := range ops {
		reply, err := c.line()
		if err != nil {
			return 0, 0, err
		}
		if c.corruptIn > 0 {
			if c.corruptIn--; c.corruptIn == 0 {
				reply[len(reply)-1] ^= 1
			}
		}
		switch o := &ops[i]; o.kind {
		case opPut:
			c.want = append(c.want[:0], "+OK"...)
		case opGet:
			c.want = strconv.AppendUint(append(c.want[:0], '+'), o.val, 10)
		default: // opGetAbsent
			c.want = append(c.want[:0], "-NOTFOUND"...)
		}
		if !bytes.Equal(reply, c.want) {
			failed++
		}
	}
	return failed, time.Since(t0), nil
}
