/*
 * The shared-library ABI between the simulator and RTL models.
 *
 * This is the boundary the paper draws in Figure 1: the RTL model (Verilator
 * C++ or GHDL output) plus its wrapper live in a shared library; gem5 links
 * against none of it and exchanges plain data structs once per RTL clock
 * tick. Keeping this header pure C guarantees a stable ABI regardless of the
 * C++ toolchains either side was built with, which is exactly why the paper
 * uses a shared library: the simulator never needs recompiling when a model
 * (or the RTL toolflow that produced it) changes.
 *
 * Per tick, the simulator passes a G5rRtlInput (device-channel beat, one
 * memory response, in-flight credits, sideband event pulses, cycles skipped
 * before this tick) and receives a G5rRtlOutput (device ready/response, new
 * memory requests, interrupt level, done flag, idle and quiet hints).
 *
 * ABI versioning: each revision only appends fields, so the simulator still
 * loads every library from G5R_RTL_ABI_VERSION_MIN on. The caller zero-fills
 * both structs before every tick and ignores a hint the model's reported
 * abi_version predates, so a stale byte is never trusted.
 *   v2 appends G5rRtlOutput.idle_hint: a v1 model is simply never idle.
 *   v3 appends G5rRtlOutput.quiet_hint and G5rRtlInput.skipped_cycles: a
 *      v2 model never gets a quiet gap and always sees skipped_cycles == 0.
 */
#ifndef G5R_BRIDGE_RTL_API_H
#define G5R_BRIDGE_RTL_API_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

#define G5R_RTL_ABI_VERSION 3u
/* Oldest model ABI the simulator still accepts. */
#define G5R_RTL_ABI_VERSION_MIN 1u
/* First ABI revision whose G5rRtlOutput carries idle_hint. */
#define G5R_RTL_ABI_IDLE_HINT 2u
/* First ABI revision with quiet_hint and skipped_cycles. */
#define G5R_RTL_ABI_QUIET_HINT 3u
#define G5R_RTL_MAX_MEM_REQ 8u
#define G5R_RTL_MEM_DATA_BYTES 64u
#define G5R_RTL_NUM_EVENT_LINES 32u

/* One memory request emitted by the model (AXI-style, up to one line). */
typedef struct G5rRtlMemReq {
    uint64_t id;      /* model-chosen tag, echoed in the response */
    uint64_t addr;
    uint8_t write;    /* 1 = write, 0 = read */
    uint8_t port;     /* 0 = primary (DBBIF-style), 1 = secondary (SRAMIF) */
    uint16_t size;    /* bytes, 1..G5R_RTL_MEM_DATA_BYTES */
    uint8_t data[G5R_RTL_MEM_DATA_BYTES]; /* write payload */
} G5rRtlMemReq;

/* Everything the model consumes on one RTL clock tick. */
typedef struct G5rRtlInput {
    /* Device/config channel (CSB / AXI-Lite style), one beat per tick. */
    uint8_t dev_valid;
    uint8_t dev_write;
    uint64_t dev_addr;
    uint64_t dev_wdata;

    /* At most one memory response per tick. */
    uint8_t mem_resp_valid;
    uint64_t mem_resp_id;
    uint8_t mem_resp_data[G5R_RTL_MEM_DATA_BYTES];

    /* How many new memory requests the model may emit this tick. The
     * RTLObject computes this from its max-in-flight parameter — the knob
     * swept in the paper's Figures 6 and 7. */
    uint32_t mem_req_credits;

    /* Sideband event pulses accumulated since the previous tick. */
    uint32_t events[G5R_RTL_NUM_EVENT_LINES];

    /* v3: idle clock cycles the simulator skipped between the previous
     * tick and this one (0 while it ticks every cycle). Each was an edge
     * with no device beat, no memory response, no event pulses and the
     * credit grant of the cycle after the previous tick; the model advances
     * over them, as if ticked with that input, before it takes this tick's
     * input. Only a model that set idle_hint or quiet_hint on its previous
     * tick receives a non-zero count. */
    uint64_t skipped_cycles;
} G5rRtlInput;

/* Everything the model produces on one RTL clock tick. */
typedef struct G5rRtlOutput {
    uint8_t dev_ready;       /* consumed this tick's device beat */
    uint8_t dev_resp_valid;  /* read data available */
    uint64_t dev_rdata;

    uint32_t mem_req_count;  /* <= G5R_RTL_MAX_MEM_REQ and <= credits */
    G5rRtlMemReq mem_req[G5R_RTL_MAX_MEM_REQ];

    uint8_t irq;   /* interrupt line level */
    uint8_t done;  /* model-defined completion flag */

    /* v2: quiescence hint. Non-zero promises that, given only idle cycles
     * (no device beat, no memory response, no event pulses), the model's
     * architecturally visible state and outputs do not change, so the
     * simulator may skip delivering clock ticks until external input
     * arrives. A model that counts cycles (e.g. a PMU with any counter
     * enabled) or has in-flight work must keep this 0. Models must also
     * keep it 0 while waveform tracing is active, since skipped cycles
     * would otherwise be missing from the dump. */
    uint8_t idle_hint;

    /* v3: stall promise, the weaker form of idle_hint. Non-zero promises
     * that, given only idle cycles, the model's outputs stay empty: no
     * memory request, no device response, the same irq and done levels.
     * Its state may still move (a counter, a pipeline draining); the
     * simulator may stop ticking it until external input arrives and then
     * hands it the skipped cycles in skipped_cycles. A model whose idle
     * cycles depend on the credit grant should promise only with the grant
     * used up (mem_req_count == mem_req_credits this tick), so the skipped
     * cycles see 0 credits; the grant can only grow again with a memory
     * response, which ends the gap. The same waveform rule as idle_hint
     * applies. */
    uint8_t quiet_hint;
} G5rRtlOutput;

/* The function table a model shared library exposes. */
typedef struct G5rRtlModelApi {
    uint32_t abi_version;  /* in [G5R_RTL_ABI_VERSION_MIN, G5R_RTL_ABI_VERSION] */
    const char* name;

    /* config is a model-specific string (e.g. a trace file path). */
    void* (*create)(const char* config);
    void (*destroy)(void* model);
    void (*reset)(void* model);
    void (*tick)(void* model, const G5rRtlInput* in, G5rRtlOutput* out);

    /* Waveform tracing, runtime-switchable (Table 2 measures its cost).
     * trace_start returns 0 on success. */
    int (*trace_start)(void* model, const char* vcd_path);
    void (*trace_stop)(void* model);
} G5rRtlModelApi;

/* Every model library exports exactly this symbol. */
#define G5R_RTL_GET_API_SYMBOL "g5r_rtl_get_api"
typedef const G5rRtlModelApi* (*G5rRtlGetApiFn)(void);

#ifdef __cplusplus
}
#endif

#endif /* G5R_BRIDGE_RTL_API_H */
