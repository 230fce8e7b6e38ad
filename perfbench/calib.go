package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// calibrator runs a fixed kernel whose CPU time tracks the speed of the
// machine: dense floating-point products as in HGT inference, a branchy
// bytecode loop as in DiscoPoP's interpreter, and dependent loads. Its
// working set fits the core's own caches, so what the program did just
// before does not change its cost. It allocates nothing, so the Go
// collector never charges it, and it is the benchmark's own code, so no
// change to the program under test changes its cost.
type calibrator struct {
	a, b, c []float64
	ops     []uint8
	next    []uint32
	// samples are the kernel's CPU times in ms, one per sample call.
	samples []float64
}

const (
	calibDim     = 32
	calibOps     = 1 << 13
	calibChase   = 1 << 14 // 64 KB of uint32 links
	calibChases  = 1 << 13
	calibRepeats = 8
)

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	k := &calibrator{
		a:    make([]float64, calibDim*calibDim),
		b:    make([]float64, calibDim*calibDim),
		c:    make([]float64, calibDim*calibDim),
		ops:  make([]uint8, calibOps),
		next: make([]uint32, calibChase),
	}
	for i := range k.a {
		k.a[i], k.b[i] = rng.Float64(), rng.Float64()
	}
	for i := range k.ops {
		k.ops[i] = uint8(rng.Intn(6))
	}
	// One random cycle through every slot, so each load depends on the
	// last and the prefetcher cannot help.
	perm := rng.Perm(calibChase)
	for i := range perm {
		k.next[perm[i]] = uint32(perm[(i+1)%len(perm)])
	}
	return k
}

// threadCPU is the calling thread's CPU time. The kernel is timed on its
// own locked thread, so the collector's background workers running on
// other threads are not charged to it.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// run executes the kernel once, after one untimed pass that warms the
// caches, and returns its CPU time.
func (k *calibrator) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k.once()
	c0 := threadCPU()
	for r := 0; r < calibRepeats; r++ {
		k.once()
	}
	return threadCPU() - c0
}

func (k *calibrator) once() {
	n := calibDim
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < n; l++ {
				s += k.a[i*n+l] * k.b[l*n+j]
			}
			k.c[i*n+j] = s
		}
	}
	acc, x := uint64(0), uint64(1)
	for _, op := range k.ops {
		switch op {
		case 0:
			acc += x
		case 1:
			acc ^= x << 3
		case 2:
			x = x*6364136223846793005 + 1442695040888963407
		case 3:
			if acc&1 == 0 {
				acc >>= 1
			}
		case 4:
			acc -= x >> 7
		default:
			x ^= acc
		}
	}
	p := uint32(acc) % calibChase
	for i := 0; i < calibChases; i++ {
		p = k.next[p]
	}
	k.c[0] += float64(p) // keep the chase's result live
}

// refCalibMS is the kernel's median CPU time, in ms, between the calls of
// a timed phase on the machine the baseline in README.md was recorded on
// (a 2-vCPU virtual machine on an Intel Xeon host).
const refCalibMS = 1.72

// sample runs the kernel once and keeps its CPU time.
func (k *calibrator) sample() { k.samples = append(k.samples, ms(k.run())) }

// scale is the factor that turns CPU time measured while the samples were
// taken into CPU time at the reference speed: below 1 when the machine ran
// slow, above 1 when it ran fast. It resets the samples.
func (k *calibrator) scale() float64 {
	s := refCalibMS / median(k.samples)
	k.samples = k.samples[:0]
	return s
}
