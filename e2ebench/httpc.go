package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to ccserve, used by one
// goroutine at a time. It writes the request and reads the response on the
// caller's goroutine, so the load generator spends a few microseconds per
// request where a general-purpose client spends tens: on a 2-core machine
// the generator's CPU time is taken from the server under test.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	req  []byte
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// do sends one request and reads the whole response body into buf,
// returning the status code. Any error closes the connection; the next
// call dials again.
func (c *conn) do(method, target string, body []byte, timeout time.Duration, buf *bytes.Buffer) (int, error) {
	status, keep, err := c.roundTrip(method, target, body, timeout, buf)
	if err != nil || !keep {
		c.close()
	}
	return status, err
}

func (c *conn) roundTrip(method, target string, body []byte, timeout time.Duration, buf *bytes.Buffer) (int, bool, error) {
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, timeout)
		if err != nil {
			return 0, false, err
		}
		c.nc = nc
		if c.br == nil {
			c.br = bufio.NewReaderSize(nc, 64<<10)
		} else {
			c.br.Reset(nc)
		}
	}
	if err := c.nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, false, err
	}
	r := append(c.req[:0], method...)
	r = append(r, ' ')
	r = append(r, target...)
	r = append(r, " HTTP/1.1\r\nHost: e2ebench\r\n"...)
	if body != nil {
		r = append(r, "Content-Type: application/json\r\nContent-Length: "...)
		r = strconv.AppendInt(r, int64(len(body)), 10)
		r = append(r, "\r\n"...)
	}
	r = append(r, "\r\n"...)
	r = append(r, body...)
	c.req = r
	if _, err := c.nc.Write(r); err != nil {
		return 0, false, err
	}

	line, err := c.line()
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, keep := -1, false, true
	for {
		h, err := c.line()
		if err != nil {
			return status, false, err
		}
		if len(h) == 0 {
			break
		}
		name, value, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return status, false, fmt.Errorf("malformed header %q", h)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return status, false, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			keep = !bytes.EqualFold(value, []byte("close"))
		}
	}
	buf.Reset()
	switch {
	case chunked:
		for {
			h, err := c.line()
			if err != nil {
				return status, false, err
			}
			if i := bytes.IndexByte(h, ';'); i >= 0 {
				h = h[:i]
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(h)), 16, 64)
			if err != nil {
				return status, false, fmt.Errorf("malformed chunk size %q", h)
			}
			if n == 0 {
				// Trailers, if any, end with an empty line.
				for {
					t, err := c.line()
					if err != nil {
						return status, false, err
					}
					if len(t) == 0 {
						return status, keep, nil
					}
				}
			}
			if _, err := io.CopyN(buf, c.br, n); err != nil {
				return status, false, err
			}
			if t, err := c.line(); err != nil || len(t) != 0 {
				return status, false, errors.New("chunk not followed by CRLF")
			}
		}
	case length >= 0:
		if _, err := io.CopyN(buf, c.br, int64(length)); err != nil {
			return status, false, err
		}
		return status, keep, nil
	default:
		return status, false, errors.New("response without a length")
	}
}

// line reads one CRLF-terminated line without its terminator. The slice is
// valid until the next read.
func (c *conn) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}
