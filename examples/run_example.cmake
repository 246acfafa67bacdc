# Runs one example for ctest:
#   cmake -DEXE=<binary> -DVERDICT=<regex, may be empty> -P run_example.cmake
# Fails unless the example exits 0 and, when VERDICT is set, prints a match.
execute_process(COMMAND ${EXE} RESULT_VARIABLE code OUTPUT_VARIABLE out)
message("${out}")
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${code}")
endif()
if(NOT VERDICT STREQUAL "" AND NOT out MATCHES "${VERDICT}")
  message(FATAL_ERROR "${EXE} printed no line matching '${VERDICT}'")
endif()
