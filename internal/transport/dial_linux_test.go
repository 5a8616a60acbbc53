package transport

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestTCPDialDroppedSYNsTimesOut dials a peer whose SYNs are dropped, not
// refused: a loopback listener with a backlog of 0 that already holds one
// unaccepted connection, which Linux answers by dropping further SYNs. The
// last dial attempt then spends the budget itself and fails with the net
// package's i/o timeout; the endpoint must still report ErrTimeout.
func TestTCPDialDroppedSYNsTimesOut(t *testing.T) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	full := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	held, err := net.DialTimeout("tcp", full, 5*time.Second) // fills the accept queue
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	addrs := []string{full, fmt.Sprintf("127.0.0.1:%d", freePorts(t, 1)[0])}
	const budget = 300 * time.Millisecond
	start := time.Now()
	_, err = NewTCPEndpoint(1, addrs, TCPOptions{DialTimeout: budget})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout in chain", err)
	}
	if elapsed > 4*budget {
		t.Fatalf("dial ran %v, far beyond the %v budget", elapsed, budget)
	}
}
