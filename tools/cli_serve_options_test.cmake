# `dsct_cli serve` option checks: a NaN budget, a non-positive horizon or
# epoch, a negative shard count, load factor or rate, and out-of-range fault
# and availability options each exit 1 with an error naming the field and
# without check-macro text, where they used to run as a plausible-looking
# serve or die on a bare check.
function(expect_rejected field)
  string(JOIN " " args ${ARGN})
  execute_process(COMMAND ${CLI} serve ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "serve ${args}: expected exit 1, got ${code}\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "${field}")
    message(FATAL_ERROR "serve ${args}: error does not name ${field}:\n${err}")
  endif()
  if(err MATCHES "check failed")
    message(FATAL_ERROR "serve ${args}: error shows check internals:\n${err}")
  endif()
endfunction()

expect_rejected(energyBudgetPerEpoch --horizon 1 --budget nan)
expect_rejected(energyBudgetPerEpoch --horizon 1 --budget -1)
expect_rejected(horizonSeconds --horizon -5)
expect_rejected(horizonSeconds --horizon 0)
expect_rejected(shards --horizon 1 --shards -3)
expect_rejected(epochSeconds --horizon 1 --epoch 0)
expect_rejected(epochSeconds --horizon 1 --epoch -0.5)
expect_rejected(admissionLoadFactor --horizon 1 --load-factor -1)
expect_rejected(arrivalRatePerSecond --horizon 1 --rate -3)
expect_rejected(machines --horizon 1 --gpus ,)
expect_rejected("unknown solver 'bogus'" --horizon 1 --faults --fallback bogus)

# Fault-injection options.
expect_rejected(mtbfSeconds --horizon 1 --faults --mtbf -1)
expect_rejected(slowdownFactor --horizon 1 --faults --slow-factor 5)
expect_rejected(maxRetries --horizon 1 --faults --max-retries -1)

# Availability options.
expect_rejected(departMtbfSeconds --horizon 1 --depart-mtbf -1)
expect_rejected(batteryInitialFraction --horizon 1 --battery 10 --battery-init 2)
expect_rejected(rechargeWatts --horizon 1 --avail --recharge -1)

# A scenario's horizon override is checked before the trace is materialised.
set(diurnal ${SCENARIO_DIR}/diurnal.dsct)
expect_rejected(horizonSeconds --scenario ${diurnal} --horizon -5)
expect_rejected(horizonSeconds --scenario ${diurnal} --horizon 0)

# The boundary values stay accepted.
execute_process(COMMAND ${CLI} serve --horizon 1 --budget 0 --shards 0
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve --budget 0 --shards 0 failed (${code}):\n${out}\n${err}")
endif()
