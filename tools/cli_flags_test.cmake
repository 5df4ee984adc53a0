# `dsct_cli` flag checks: every subcommand rejects a flag it does not take
# or that is given twice, a numeric flag must parse as a whole token, and a
# count must be at least 1. Each case exits 1 with an error naming the flag,
# without the check macro's "check failed … at FILE:LINE" text.
function(expect_rejected flag)
  string(JOIN " " args ${ARGN})
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "${args}: expected exit 1, got ${code}\n${out}\n${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${args}: error does not name ${flag}:\n${err}")
  endif()
  string(FIND "${err}" "check failed" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${args}: error shows check internals:\n${err}")
  endif()
endfunction()

set(inst ${WORKDIR}/flags_inst.json)
execute_process(COMMAND ${CLI} generate --tasks 6 --machines 2 --seed 3
                        --out ${inst} RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "generate failed (${code})")
endif()

# Unknown flags, including the removed --no-lp-warm, --lp-engine and --async.
expect_rejected(--bogus serve --bogus 1)
expect_rejected(--no-lp-warm serve --horizon 1 --no-lp-warm)
expect_rejected(--async serve --horizon 1 --async)
expect_rejected(--lp-engine solve ${inst} --lp-engine dense)
expect_rejected(--bogus solve ${inst} --bogus)
expect_rejected(--frobnicate generate --tasks 4 --out ${WORKDIR}/unused.json
                --frobnicate)
expect_rejected(--trace info ${inst} --trace)
expect_rejected(--out validate ${inst} ${inst} --out x)
# A flag valid for one subcommand is unknown to another.
expect_rejected(--algo serve --algo approx)

# A flag given twice is an error, not last-wins.
expect_rejected(--seed serve --seed 1 --seed 2 --horizon 1)

# Numbers must consume the whole token.
expect_rejected(--rate serve --rate abc)
expect_rejected(--rate serve --rate 1.5x)
expect_rejected(--horizon serve --horizon 1s)
expect_rejected(--shards serve --horizon 1 --shards 2x)
expect_rejected(--shards serve --horizon 1 --shards 1.5)
expect_rejected(--seed serve --seed 99999999999)
expect_rejected(--tasks generate --tasks 10abc --out ${WORKDIR}/unused.json)
expect_rejected(--time-limit solve ${inst} --time-limit fast)

# Counts must be at least 1.
expect_rejected(--tasks generate --tasks 0 --out ${WORKDIR}/unused.json)
expect_rejected(--machines generate --machines -2 --out ${WORKDIR}/unused.json)

# Well-formed values stay accepted.
execute_process(COMMAND ${CLI} serve --horizon 1 --rate 1.5e1 --shards 0
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve --rate 1.5e1 failed (${code}):\n${out}\n${err}")
endif()
execute_process(COMMAND ${CLI} solve ${inst} --algo approx --time-limit 5
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "solve --time-limit 5 failed (${code}):\n${out}\n${err}")
endif()
