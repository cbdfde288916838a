/* Thread CPU affinity for the benchmark driver: pin a thread (0 = the
   calling one) to one CPU, or give it back the mask the driver started
   with.  Children and domains started by a pinned thread inherit its
   mask. */

#define _GNU_SOURCE
#include <sched.h>
#include <sys/types.h>
#include <caml/mlvalues.h>

static cpu_set_t initial;
static int have_initial = 0;

value perfbench_set_affinity(value v_tid, value v_cpu)
{
  pid_t tid = Int_val(v_tid);
  int cpu = Int_val(v_cpu);
  cpu_set_t set;
  if (!have_initial) {
    if (sched_getaffinity(0, sizeof initial, &initial) != 0) return Val_false;
    have_initial = 1;
  }
  if (cpu < 0) {
    set = initial;
  } else {
    if (cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &initial)) return Val_false;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
  }
  return Val_bool(sched_setaffinity(tid, sizeof set, &set) == 0);
}
