# Runs EXE with --print-config FLAG VALUE and passes only when the run
# exits non-zero (not by a signal) and its stderr names FLAG: a bad
# flag value must be rejected with a message, never accepted or crash.
#
#   cmake -DEXE=path/to/drstrange_sim -DFLAG=--buffer -DVALUE=-1 \
#         -P expect_cli_error.cmake
execute_process(COMMAND "${EXE}" --print-config "${FLAG}" "${VALUE}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "${FLAG} ${VALUE}: died (${rc})\n${err}")
endif()
if(rc EQUAL 0)
    message(FATAL_ERROR "${FLAG} ${VALUE}: accepted\n${out}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${FLAG} ${VALUE}: message does not name "
        "the flag\n${err}")
endif()
