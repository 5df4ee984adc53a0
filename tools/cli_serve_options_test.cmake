# `dsct_cli serve` entry-option checks: a NaN budget, a non-positive horizon
# or epoch, a negative shard count and a negative admission load factor each
# exit 1 with an error naming the field, where they used to run as a
# plausible-looking serve or die on a bare check.
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
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

expect_rejected(energyBudgetPerEpoch --horizon 1 --budget nan)
expect_rejected(energyBudgetPerEpoch --horizon 1 --budget -1)
expect_rejected(horizonSeconds --horizon -5)
expect_rejected(horizonSeconds --horizon 0)
expect_rejected(shards --horizon 1 --shards -3)
expect_rejected(epochSeconds --horizon 1 --epoch 0)
expect_rejected(epochSeconds --horizon 1 --epoch -0.5)
expect_rejected(admissionLoadFactor --horizon 1 --load-factor -1)

# A scenario's horizon override is checked before the trace is materialised,
# and the error carries no check-macro text.
set(diurnal ${SCENARIO_DIR}/diurnal.dsct)
expect_rejected(horizonSeconds --scenario ${diurnal} --horizon -5)
set(negative_err "${last_err}")
expect_rejected(horizonSeconds --scenario ${diurnal} --horizon 0)
if("${negative_err}${last_err}" MATCHES "check failed")
  message(FATAL_ERROR "scenario horizon errors show check internals:\n"
                      "${negative_err}\n${last_err}")
endif()

# The boundary values stay accepted.
execute_process(COMMAND ${CLI} serve --horizon 1 --budget 0 --shards 0
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve --budget 0 --shards 0 failed (${code}):\n${out}\n${err}")
endif()
