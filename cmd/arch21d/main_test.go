package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// A -peers entry the front-end cannot reach over plain http:// is refused
// at startup with exit 2, as an engine-only flag is. The test binary runs
// itself as arch21d (ARCH21D_ARGS holds the arguments); a boot that is not
// refused would serve until the timeout kills it.
func TestPeersMustBePlainHTTP(t *testing.T) {
	if args := os.Getenv("ARCH21D_ARGS"); args != "" {
		os.Args = append([]string{"arch21d"}, strings.Fields(args)...)
		main()
		return
	}
	for _, peers := range []string{"https://replica:8022", "127.0.0.1:8022,ftp://replica:8023"} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestPeersMustBePlainHTTP$")
		cmd.Env = append(os.Environ(), "ARCH21D_ARGS=-addr 127.0.0.1:0 -peers "+peers)
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "plain http://") {
			t.Fatalf("-peers %s: %v\n%s\nwant exit 2 naming plain http://", peers, err, out)
		}
	}
}
