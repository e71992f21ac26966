package main

import (
	"errors"
	"io"
	"net"
	"runtime"
	"syscall"
)

// dial connects a client connection to the gateway. With spin set, the
// connection's reads poll the socket instead of sleeping: in a virtual
// machine, waking an idle vCPU for every reply goes through the hypervisor,
// whose delay follows the host's load and dominated run-to-run spread. Spin
// only when the gateway has a CPU of its own.
func dial(addr string, spin bool) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil || !spin {
		return c, err
	}
	raw, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		c.Close()
		return nil, err
	}
	return &spinConn{Conn: c, raw: raw}, nil
}

// spinConn is a net.Conn whose Read busy-polls the non-blocking socket,
// yielding to the client's other goroutines between polls.
type spinConn struct {
	net.Conn
	raw syscall.RawConn
}

func (c *spinConn) Read(p []byte) (int, error) {
	var n int
	var rerr error
	err := c.raw.Read(func(fd uintptr) bool {
		for {
			n, rerr = syscall.Read(int(fd), p)
			if !errors.Is(rerr, syscall.EAGAIN) && !errors.Is(rerr, syscall.EINTR) {
				return true
			}
			runtime.Gosched()
		}
	})
	switch {
	case err != nil:
		return 0, err
	case rerr != nil:
		return 0, rerr
	case n == 0 && len(p) > 0:
		return 0, io.EOF
	}
	return n, nil
}
