// Command flowbenchd is the benchmark's server: the multi-project host
// (serve.NewHost) over a durable root, with fsync on and a resident
// byte budget, listening on loopback. It prints "listening <addr>" on
// standard output once the listener is bound and serves until it is
// killed.
//
//	flowbenchd -root DIR [-addr 127.0.0.1:0] [-budget BYTES]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"flowsched/internal/serve"
	"flowsched/perfbench/internal/benchhost"
)

func main() {
	root := flag.String("root", "", "durable project root")
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	budget := flag.Int64("budget", 0, "resident byte budget over loaded projects (0 = unlimited)")
	flag.Parse()
	if err := run(*root, *addr, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "flowbenchd:", err)
		os.Exit(1)
	}
}

func run(root, addr string, budget int64) error {
	if root == "" {
		return fmt.Errorf("-root is required")
	}
	h, err := serve.NewHost(benchhost.HostOptions(root, budget, nil), benchhost.ServeOptions(addr))
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", l.Addr())
	return h.Serve(l)
}
