package testutil

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Proc is a child process that runs the test binary under a command's name.
// A command package's TestMain runs the real command when argv[0] names it
// (see cmd/placer), so a test drives the CLI — flags, files, signals and
// exit codes — in separate processes without a prebuilt binary.
type Proc struct {
	*exec.Cmd
	out    string        // file collecting the child's stdout and stderr
	exited chan struct{} // closed once the child has been reaped
}

// Start runs the test binary as command name with args in dir. A child
// still running when the test ends is killed.
func Start(t testing.TB, dir, name string, args ...string) *Proc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locate test binary: %v", err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), name+".out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	p := &Proc{Cmd: exec.Command(exe, args...), out: out.Name(), exited: make(chan struct{})}
	p.Args[0] = name
	p.Dir = dir
	p.Stdout, p.Stderr = out, out
	if err := p.Cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		p.Cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		p.Process.Kill()
		<-p.exited
	})
	return p
}

// Output returns what the child has written to stdout and stderr so far.
func (p *Proc) Output() string {
	b, _ := os.ReadFile(p.out)
	return string(b)
}

// Wait waits up to five minutes for the child to exit and returns its exit
// code, -1 when a signal ended it.
func (p *Proc) Wait(t testing.TB) int {
	t.Helper()
	select {
	case <-p.exited:
	case <-time.After(5 * time.Minute):
		t.Fatalf("%s did not exit; output:\n%s", p.Args[0], p.Output())
	}
	return p.ProcessState.ExitCode()
}

// WaitLine waits up to a minute for a complete output line containing
// substr and returns it. It fails the test if the child exits first.
func (p *Proc) WaitLine(t testing.TB, substr string) string {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		exited := false
		select {
		case <-p.exited:
			exited = true
		default:
		}
		out := p.Output()
		for _, line := range strings.SplitAfter(out, "\n") {
			if strings.HasSuffix(line, "\n") && strings.Contains(line, substr) {
				return strings.TrimSuffix(line, "\n")
			}
		}
		if exited {
			t.Fatalf("%s exited before printing %q; output:\n%s", p.Args[0], substr, out)
		}
	}
	t.Fatalf("%s printed no %q within a minute; output:\n%s", p.Args[0], substr, p.Output())
	return ""
}

// URL waits for the "listening on http://ADDR/" line that placer -serve,
// placed and dashboard print once their listener is up, and returns
// "http://ADDR".
func (p *Proc) URL(t testing.TB) string {
	t.Helper()
	line := p.WaitLine(t, "listening on http://")
	addr := line[strings.Index(line, "http://")+len("http://"):]
	if i := strings.IndexByte(addr, '/'); i >= 0 {
		addr = addr[:i]
	}
	return "http://" + addr
}

// Get fetches url and returns the body. Any status but 200 fails the test.
func Get(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}
