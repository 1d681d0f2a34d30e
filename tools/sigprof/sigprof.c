/* sigprof: an LD_PRELOAD sampling profiler for images that have no perf.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   SIGPROF_OUT=run.prof LD_PRELOAD=./sigprof.so <program> <args>
 *
 * Every millisecond of process CPU time the kernel delivers SIGPROF to
 * the thread that is running; the handler stores that thread's call
 * stack in an array allocated at start-up. At
 * exit the stacks are written to SIGPROF_OUT (default sigprof.out), one
 * per line as hex return addresses, innermost first, followed by a copy
 * of /proc/self/maps, which report.py needs to turn addresses into file
 * offsets. The handler calls backtrace() and nothing else: glibc's
 * unwinder allocates on its first call only, and the constructor makes
 * that call before the timer starts.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

enum { PERIOD_US = 1000, MAX_DEPTH = 64, MAX_SAMPLES = 1 << 16 };

struct sample { int depth; void *pc[MAX_DEPTH]; };

static struct sample *samples;
static volatile int taken, lost;

static void on_prof(int sig) {
    (void)sig;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) { lost++; return; }
    samples[i].depth = backtrace(samples[i].pc, MAX_DEPTH);
}

static void set_timer(long us) {
    struct itimerval it = { { 0, us }, { 0, us } };
    setitimer(ITIMER_PROF, &it, NULL);
}

static void dump(void) {
    set_timer(0);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    if (!out) { perror("sigprof: cannot write the profile"); return; }
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "# samples %d lost %d\n", n, lost);
    for (int i = 0; i < n; i++) {
        /* Frames 0 and 1 are on_prof and the kernel's signal trampoline. */
        for (int d = 2; d < samples[i].depth; d++)
            fprintf(out, "%s%lx", d > 2 ? " " : "", (unsigned long)samples[i].pc[d]);
        fputc('\n', out);
    }
    fputs("# maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;) fputc(c, out);
    if (maps) fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4);
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    if (!samples) return;
    struct sigaction sa = { .sa_handler = on_prof, .sa_flags = SA_RESTART };
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);
    set_timer(PERIOD_US);
}
