/* CPU clocks and CPU affinity for the benchmark's processes (Linux;
   elsewhere the affinity calls report failure and the benchmark runs
   unpinned). */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <sys/types.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>

/* CPU seconds process [pid] has run, over all its threads; pid 0 is the
   calling process. Waiting for a CPU, in this system or on the host, does
   not count. */
value perfbench_process_cpu(value pid)
{
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  struct timespec t;
  if (Int_val(pid) != 0 && clock_getcpuclockid((pid_t)Int_val(pid), &clock) != 0)
    caml_failwith("perfbench: no CPU clock for the process");
  if (clock_gettime(clock, &t) != 0)
    caml_failwith("perfbench: cannot read a CPU clock");
  return caml_copy_double((double)t.tv_sec + (double)t.tv_nsec * 1e-9);
}

/* The CPUs the calling thread may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  list = Val_emptylist;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc_small(2, Tag_cons);
        Field(cell, 0) = Val_int(cpu);
        Field(cell, 1) = list;
        list = cell;
      }
    }
  }
#endif
  (void)unit;
  CAMLreturn(list);
}

/* Restricts thread [tid] to [cpu]; true on success. */
value perfbench_pin_thread(value tid, value cpu)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity((pid_t)Int_val(tid), sizeof set, &set) == 0);
#else
  (void)tid;
  (void)cpu;
  return Val_false;
#endif
}
