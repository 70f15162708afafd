// Command citool bundles the tiny file checks CI used to shell out to
// python3 for, so the workflow needs nothing beyond the repo's own Go
// toolchain:
//
//	citool png-magic <file>   verify the file starts with the 8-byte PNG
//	                          signature (dashboard-smoke heatmap check)
//	citool kill9 <pid>        SIGKILL the process — the chaos-server smoke
//	                          murders job workers mid-stage with it, with no
//	                          chance for the victim to flush or clean up
//
// Exit codes: 0 success / check passed, 1 check failed or I/O error,
// 2 usage error.
package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: citool png-magic <file> | kill9 <pid>")
		return 2
	}
	cmd, path := args[0], args[1]
	switch cmd {
	case "kill9":
		pid, err := strconv.Atoi(path)
		if err != nil || pid <= 0 {
			fmt.Fprintf(os.Stderr, "citool: kill9 wants a positive pid, got %q\n", path)
			return 2
		}
		if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
			fmt.Fprintf(os.Stderr, "citool: kill9 %d: %v\n", pid, err)
			return 1
		}
		fmt.Printf("killed pid %d\n", pid)
		return 0
	case "png-magic":
		magic := []byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "citool: %v\n", err)
			return 1
		}
		if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic) {
			fmt.Fprintf(os.Stderr, "citool: %s is not a PNG\n", path)
			return 1
		}
		fmt.Printf("%s: PNG signature ok (%d bytes)\n", path, len(data))
		return 0
	default:
		fmt.Fprintf(os.Stderr, "citool: unknown command %q\n", cmd)
		return 2
	}
}
