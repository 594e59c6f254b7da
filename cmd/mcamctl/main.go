// Command mcamctl is the MCAM command-line client: movie access,
// management and control against an mcamd server, with playback received
// on a local UDP socket.
//
// Usage:
//
//	mcamctl -server 127.0.0.1:10240 list
//	mcamctl -server ... create NAME [rate]
//	mcamctl -server ... delete NAME
//	mcamctl -server ... query NAME
//	mcamctl -server ... set NAME key=value [key=value...]
//	mcamctl -server ... record NAME DEVICE COUNT
//	mcamctl -server ... play NAME
//
// Offline segment-store administration (no server involved; -data points
// at an mcamd disk-store directory, frame files are length-prefixed raw
// frames):
//
//	mcamctl -data DIR import NAME FRAMEFILE [rate]
//	mcamctl -data DIR -append import NAME FRAMEFILE
//	mcamctl -data DIR export NAME FRAMEFILE
//
// import creates the movie and refuses to touch an existing one unless
// -append is given (a retried import must not silently duplicate frames);
// the rate argument applies only at creation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"xmovie"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mcamctl:", err)
		os.Exit(1)
	}
}

func run() error {
	server := flag.String("server", "127.0.0.1:10240", "mcamd control address")
	stackName := flag.String("stack", "generated", "control stack: generated | handcoded")
	dataDir := flag.String("data", "", "disk-store directory for offline import/export")
	appendTo := flag.Bool("append", false, "import: append to an existing movie instead of refusing")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("missing command (list|create|delete|query|set|record|play|import|export)")
	}
	switch args[0] {
	case "import", "export":
		return runOffline(*dataDir, *appendTo, args)
	}
	stack := xmovie.StackGenerated
	if *stackName == "handcoded" {
		stack = xmovie.StackHandcoded
	}
	client, err := xmovie.Dial(*server, xmovie.ClientConfig{Stack: stack})
	if err != nil {
		return err
	}
	defer client.Close()

	switch args[0] {
	case "list":
		movies, err := client.List()
		if err != nil {
			return err
		}
		for _, m := range movies {
			fmt.Println(m)
		}
		return nil
	case "create":
		if len(args) < 2 {
			return fmt.Errorf("create NAME [rate]")
		}
		rate := 25
		if len(args) > 2 {
			if rate, err = strconv.Atoi(args[2]); err != nil {
				return err
			}
		}
		return client.Create(args[1], rate, nil)
	case "delete":
		if len(args) != 2 {
			return fmt.Errorf("delete NAME")
		}
		return client.Delete(args[1])
	case "query":
		if len(args) != 2 {
			return fmt.Errorf("query NAME")
		}
		attrs, err := client.Query(args[1])
		if err != nil {
			return err
		}
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%s = %s\n", k, attrs[k])
		}
		return nil
	case "set":
		if len(args) < 3 {
			return fmt.Errorf("set NAME key=value...")
		}
		updates := make(map[string]string)
		for _, kv := range args[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad attribute %q", kv)
			}
			updates[k] = v
		}
		return client.Modify(args[1], updates)
	case "record":
		if len(args) != 4 {
			return fmt.Errorf("record NAME DEVICE COUNT")
		}
		count, err := strconv.Atoi(args[3])
		if err != nil {
			return err
		}
		length, err := client.Record(args[1], args[2], int64(count))
		if err != nil {
			return err
		}
		fmt.Printf("recorded; movie is now %d frames\n", length)
		return nil
	case "play":
		if len(args) != 2 {
			return fmt.Errorf("play NAME")
		}
		return play(client, args[1])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// runOffline executes the segment-store administration commands directly
// against a disk store — the bulk path for moving raw frame files in and
// out of the movie database without a running server.
func runOffline(dataDir string, appendTo bool, args []string) error {
	if dataDir == "" {
		return fmt.Errorf("%s needs -data DIR", args[0])
	}
	store, err := xmovie.OpenDiskStore(dataDir)
	if err != nil {
		return err
	}
	defer store.Close()

	switch args[0] {
	case "import":
		if len(args) < 3 || len(args) > 4 {
			return fmt.Errorf("import NAME FRAMEFILE [rate]")
		}
		name, path := args[1], args[2]
		rate := 25
		if len(args) == 4 {
			if appendTo {
				return fmt.Errorf("rate applies only when import creates the movie; drop it with -append")
			}
			if rate, err = strconv.Atoi(args[3]); err != nil {
				return err
			}
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		frames, err := moviedb.ReadRawFrames(f)
		if err != nil {
			// A partially written frame file (e.g. copied mid-write or
			// truncated by a crash) is refused outright rather than imported
			// as a shortened movie.
			return fmt.Errorf("%s: %w; nothing was imported", path, err)
		}
		if err := store.Create(&moviedb.Movie{Name: name, FrameRate: rate}); err != nil {
			// A retried import must not silently double the movie: only
			// -append touches an existing one.
			if !errors.Is(err, moviedb.ErrExists) {
				return err
			}
			if !appendTo {
				return fmt.Errorf("%s already exists (use -append to add these frames to it)", name)
			}
		}
		rec, err := store.Record(name)
		if err != nil {
			return err
		}
		_, err = rec.Append(frames)
		if cerr := rec.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		m, err := store.Get(name)
		if err != nil {
			return err
		}
		fmt.Printf("imported %d frames; %s is now %d frames\n", len(frames), name, m.FrameCount())
		return nil
	case "export":
		if len(args) != 3 {
			return fmt.Errorf("export NAME FRAMEFILE")
		}
		name, path := args[1], args[2]
		m, err := store.Get(name)
		if err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		// Snapshot the length before opening: on a movie that is being
		// recorded (another process appending to the same store directory),
		// the source follows the live tail and the export would otherwise
		// chase it forever. The bounded write yields a consistent prefix.
		limit := m.FrameCount()
		src := m.Open()
		n, werr := moviedb.WriteRawFramesN(f, src, limit)
		src.Close()
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("exported %d frames of %s to %s\n", n, name, path)
		return nil
	default:
		return fmt.Errorf("unknown offline command %q", args[0])
	}
}

func play(client *xmovie.Client, movie string) error {
	lis, err := mtp.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	length, rate, err := client.Select(movie)
	if err != nil {
		return err
	}
	fmt.Printf("playing %s: %d frames at %d fps -> %s\n", movie, length, rate, lis.Addr())
	done := make(chan mtp.RecvStats, 1)
	go func() {
		st, _ := mtp.ReceiveStream(lis, mtp.ReceiverConfig{}, nil)
		done <- st
	}()
	start := time.Now()
	if _, err := client.Play(movie, lis.Addr()); err != nil {
		return err
	}
	st := <-done
	fmt.Printf("done: %d/%d frames (%.1f%%), jitter %d us, %v\n",
		st.Delivered, length, st.DeliveryRatio()*100, st.JitterMicro,
		time.Since(start).Round(time.Millisecond))
	return nil
}
