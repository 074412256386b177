package remote

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/pipeline"
	"repro/internal/vec"
)

// Kernel is one named remote stage body: decode the request blob,
// compute, encode the reply blob. Kernels run concurrently (one
// goroutine per in-flight Compute) and must not retain req after
// returning — the service recycles both buffers. ctx is cancelled when
// the requesting connection dies, so long kernels can abort work
// nobody will read.
type Kernel func(ctx context.Context, req []byte) ([]byte, error)

// Worker is a Service that hosts kernels. The alias stays only because
// the benchmark module (bench/) names *remote.Worker.
type Worker = Service

// NewWorker starts a compute host on addr (use "127.0.0.1:0" for an
// ephemeral port): a Service without a store, with the built-in kernels
// — hybrid extraction and the v6 sort-last partial render — registered.
// It speaks Compute, Kernels, Ping and Stats. Workers advertise their
// kernel set over the v4 Kernels verb, which is how a Fleet verifies a
// member's provisioning before dispatching frames to it. cmd/vizworker
// is the CLI host.
func NewWorker(addr string) (*Worker, error) {
	return newService(addr, nil, map[string]Kernel{
		KernelHybridExtract: hybridExtractKernel(),
		KernelRenderPartial: renderPartialKernel(),
	}, ServiceOptions{})
}

// Register adds (or replaces) a named kernel; a service holding one
// answers Compute and Kernels. Safe to call while serving.
func (s *Service) Register(name string, k Kernel) {
	s.kmu.Lock()
	s.kernels[name] = k
	s.kmu.Unlock()
}

// Kernels lists the registered kernel names, sorted — the set the
// service advertises over the Kernels verb.
func (s *Service) Kernels() []string {
	s.kmu.RLock()
	defer s.kmu.RUnlock()
	names := make([]string, 0, len(s.kernels))
	for name := range s.kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// hostsKernels reports whether s has a kernel registered, and so
// speaks Compute and Kernels.
func (s *Service) hostsKernels() bool {
	s.kmu.RLock()
	defer s.kmu.RUnlock()
	return len(s.kernels) > 0
}

// compute decodes a Compute payload and runs the kernel it names.
func (s *Service) compute(ctx context.Context, p []byte) ([]byte, error) {
	name, blob, err := decodeComputeRequest(p)
	if err != nil {
		return nil, badRequest(err)
	}
	s.kmu.RLock()
	k := s.kernels[name]
	s.kmu.RUnlock()
	if k == nil {
		return nil, &WireError{
			Code: ErrCodeUnknownKernel,
			Msg:  fmt.Sprintf("remote: worker has no kernel %q", name),
		}
	}
	return k(ctx, blob)
}

// hybridExtractKernel builds the standard distributed stage: a
// projected point set comes in, the worker runs the exact local
// partition+extract pair — octree.Build then hybrid.Extract with the
// shipped configs — and the hybrid representation goes back in .achy
// encoding. Point-set scratch, octree builders, retired trees and reply
// buffers recycle across frames: the tree never leaves the kernel, so it
// is retired as soon as Extract, which copies what it keeps, returns.
func hybridExtractKernel() Kernel {
	scratch := pipeline.NewFreeList(func() []vec.V3 { return nil })
	builders := pipeline.NewFreeList(func() *octree.Builder { return new(octree.Builder) })
	trees := pipeline.NewFreeList(func() *octree.Tree { return nil })
	return func(ctx context.Context, req []byte) ([]byte, error) {
		pts, tcfg, ecfg, err := decodeExtractRequest(req, scratch.Get())
		if err != nil {
			pipeline.PutSlice(scratch, pts)
			return nil, badRequest(err)
		}
		if err := ctx.Err(); err != nil {
			pipeline.PutSlice(scratch, pts)
			return nil, err
		}
		b := builders.Get()
		tree, err := b.Build(pts, tcfg, trees.Get())
		builders.Put(b)
		pipeline.PutSlice(scratch, pts) // Build copies what it keeps
		if err != nil {
			return nil, err
		}
		defer trees.Put(tree)
		// Phase boundary: if the requester vanished mid-Build, skip the
		// extract nobody will read.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := hybrid.Extract(tree, ecfg)
		if err != nil {
			return nil, err
		}
		return rep.AppendBinary(getBytes(0)), nil
	}
}
