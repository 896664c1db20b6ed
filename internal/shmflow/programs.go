package shmflow

import (
	"fmt"

	"whodunit/internal/vm"
)

// Memory-layout constants shared by the scenario programs. The word-
// addressed layout mirrors Figure 1's fd_queue_t: a counter word plus an
// array of two-word elements (sd, p).
const (
	QueueBase = 0x1000 // fd_queue_t: [QueueBase] = nelts
	QueueData = 0x1010 // data array, stride 2 words: sd, p
	QueueLock = 1      // one_big_mutex

	CounterAddr = 0x2000 // shared event counter (Figure 2)
	CounterLock = 2

	FreeHead  = 0x3000 // memory allocator free-list head (Figure 3)
	AllocLock = 3

	ListHead = 0x4000 // sys/queue.h-style singly-linked list head
	ListLock = 4
)

// ApachePush is ap_queue_push from Figure 1 (see QueueProg) on the
// queue at QueueBase under one_big_mutex.
var ApachePush = QueueProg("ap_queue_push", QueueLock, QueueBase, false)

// ApachePop is ap_queue_pop from Figure 1 (see QueueProg) on the queue
// at QueueBase under one_big_mutex.
var ApachePop = QueueProg("ap_queue_pop", QueueLock, QueueBase, true)

// QueueProg assembles one of Figure 1's critical sections, under the
// given program name, for an fd_queue_t laid out at base (nelts at
// base, two-word elements from base+0x10) and guarded by vm lock `lock`.
// r1 must hold base.
//
// Push (ap_queue_push) stores the connection's sd and p (passed in r4,
// r5) into data[nelts] and bumps nelts. Pop (ap_queue_pop) reads
// data[--nelts] into r4, r5, then — after releasing the lock — uses the
// values by storing them into caller locals at [r9], a private scratch
// address.
func QueueProg(name string, lock int, base int64, pop bool) *vm.Program {
	src := `
	push:
		lock %[1]d
		load  r3, [r1]       ; r3 = queue->nelts
		add   r6, r3, r3     ; r6 = nelts * 2 (element stride)
		movi  r7, %#[2]x     ; r7 = &queue->data[0]
		add   r7, r7, r6     ; r7 = &queue->data[nelts]
		store [r7+0], r4     ; elem->sd = sd   (produce)
		store [r7+1], r5     ; elem->p  = p    (produce)
		incm  [r1]           ; queue->nelts++
		unlock %[1]d
		halt
`
	if pop {
		src = `
	pop:
		lock %[1]d
		decm  [r1]           ; --queue->nelts
		load  r3, [r1]       ; r3 = nelts
		add   r6, r3, r3
		movi  r7, %#[2]x
		add   r7, r7, r6     ; r7 = &queue->data[nelts]
		load  r4, [r7+0]     ; *sd = elem->sd
		load  r5, [r7+1]     ; *p  = elem->p
		unlock %[1]d
		store [r9+0], r4     ; caller uses sd after return (consume)
		store [r9+1], r5     ; caller uses p  after return (consume)
		halt
`
	}
	return vm.MustAssemble(name, fmt.Sprintf(src, lock, base+0x10))
}

// SharedCounter is Figure 2's pattern: each thread increments a shared
// counter under a mutex r2 times. No MOV ever crosses threads, so no flow
// may be inferred. r1 must hold CounterAddr.
var SharedCounter = vm.MustAssemble("shared_counter", `
	main:
		lock 2
		incm [r1]
		unlock 2
		addi r2, r2, -1
		jne  r2, 0, main
		halt
`)

// AllocWork is Figure 3's do_work body: a thread frees its block onto the
// shared list and then allocates one back, repeatedly becoming both
// producer and consumer of the allocator lock's resource — the pattern
// §3.4's producer/consumer intersection rule demotes to non-flow.
// r2 = FreeHead, r4 = block address, r9 = scratch.
var AllocWork = vm.MustAssemble("alloc_work", `
	main:
		lock 3
		load  r3, [r2]
		store [r4], r3       ; block->next = head
		store [r2], r4       ; head = block (produce)
		unlock 3
		nop
		lock 3
		load  r4, [r2]       ; block = head
		load  r3, [r4]       ; next
		store [r2], r3       ; head = next
		unlock 3
		store [r9], r4       ; use block (consume)
		halt
`)

// MemFree is Figure 3's mem_free: push block (address in r4) onto the
// free list. r2 must hold &mem_free_list (FreeHead).
var MemFree = vm.MustAssemble("mem_free", `
	free:
		lock 3
		load  r3, [r2]       ; r3 = old head
		store [r4], r3       ; block->next = head
		store [r2], r4       ; head = block  (produce)
		unlock 3
		halt
`)

// MemAlloc is Figure 3's mem_alloc: pop the head block and use it after
// the critical section. r2 must hold FreeHead; r9 a private scratch
// address. The returned block address lands in r4.
var MemAlloc = vm.MustAssemble("mem_alloc", `
	alloc:
		lock 3
		load  r4, [r2]       ; r4 = head
		load  r3, [r4]       ; r3 = head->next
		store [r2], r3       ; head = next
		unlock 3
		store [r9], r4       ; use the block (consume)
		halt
`)

// ListPush pushes a (data, elem-address) pair onto a singly-linked list
// in the style of FreeBSD sys/queue.h SLIST_INSERT_HEAD (§3.3.2). r8 is
// the element's address, r4 its payload, r1 must hold ListHead.
var ListPush = vm.MustAssemble("list_push", `
	push:
		lock 4
		store [r8+0], r4     ; elem->data = v      (produce)
		load  r3, [r1]       ; r3 = head
		store [r8+1], r3     ; elem->next = head
		store [r1], r8       ; head = elem         (produce)
		unlock 4
		halt
`)

// ListPop pops the head element, consuming its payload after the critical
// section, and writes the successor back to the head — including the NULL
// (invalid-context) case discussed in §3.3.2. r1 must hold ListHead, r9 a
// private scratch address. Payload lands in r4; the popped element's
// address in r8.
var ListPop = vm.MustAssemble("list_pop", `
	pop:
		lock 4
		load  r8, [r1]       ; r8 = head
		jeq   r8, 0, empty
		load  r3, [r8+1]     ; r3 = head->next
		store [r1], r3       ; head = next
		load  r4, [r8+0]     ; r4 = elem->data
		unlock 4
		store [r9], r4       ; use payload (consume)
		halt
	empty:
		movi  r4, 0
		unlock 4
		store [r9], r4       ; "uses" NULL: must NOT be a consume
		halt
`)

// ListPushNullInit is ListPush with the §3.3.2 consistency-check style:
// the producer initialises elem->next with the immediate NULL before
// linking, so an empty-list pop propagates the invalid context.
var ListPushNullInit = vm.MustAssemble("list_push_null", `
	push:
		lock 4
		store  [r8+0], r4    ; elem->data = v   (produce)
		storei [r8+1], 0     ; elem->next = NULL (invalid context)
		load   r3, [r1]      ; r3 = head
		jeq    r3, 0, link   ; empty list: keep NULL next
		store  [r8+1], r3    ; elem->next = head
	link:
		store [r1], r8       ; head = elem      (produce)
		unlock 4
		halt
`)

// QueueMove relocates an element (two words) from slot src to slot dst
// within the shared queue under the queue lock — the priority-queue
// reshuffling case of §3.2: the destination must inherit the source's
// context, not the mover's. r1 = &queue, r6 = src slot addr, r7 = dst
// slot addr.
var QueueMove = vm.MustAssemble("queue_move", `
	move:
		lock 1
		load  r4, [r6+0]
		load  r5, [r6+1]
		store [r7+0], r4
		store [r7+1], r5
		unlock 1
		halt
`)

// CrossLockRead reads the first queue slot under an unrelated lock (id 5)
// and uses the value after exit; the lock-mismatch flush must prevent any
// flow inference. r7 = slot addr, r9 = scratch.
var CrossLockRead = vm.MustAssemble("cross_lock_read", `
	read:
		lock 5
		load r4, [r7+0]
		unlock 5
		store [r9], r4
		halt
`)
