/**
 * @file
 * Umbrella header for the dr-strange library: include this to use the
 * full public API (system simulation, workloads, metrics, and the
 * getrandom()-style RandomDevice).
 */

#ifndef DSTRANGE_DRSTRANGE_H
#define DSTRANGE_DRSTRANGE_H

#include "api/random_device.h"
#include "api/simulation_builder.h"
#include "common/latency_histogram.h"
#include "common/stats_util.h"
#include "common/table_printer.h"
#include "dram/address_mapper.h"
#include "mem/scheduler_registry.h"
#include "service/arrival_process.h"
#include "service/open_loop_service.h"
#include "service/slo_report.h"
#include "sim/area_model.h"
#include "sim/config_text.h"
#include "sim/design_registry.h"
#include "sim/energy_model.h"
#include "sim/metrics.h"
#include "sim/result_store.h"
#include "sim/runner.h"
#include "sim/sweep_runner.h"
#include "sim/system.h"
#include "strange/rl_predictor.h"
#include "strange/simple_predictor.h"
#include "trng/bit_quality.h"
#include "trng/trng_mechanism.h"
#include "workloads/app_profile.h"
#include "workloads/mixes.h"
#include "workloads/rng_benchmark.h"
#include "workloads/synthetic_trace.h"

#endif // DSTRANGE_DRSTRANGE_H
