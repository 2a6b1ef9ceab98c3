# Checks that `stindex_cli advise` prints the same cost table at
# --threads 1 and --threads 4 in both modes: the advisor splits with the
# requested workers, and the split pipeline is deterministic at any
# thread count.
#
#   cmake -DCLI=path/to/stindex_cli -DWORK_DIR=dir \
#         -P cli_advise_threads_test.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")
set(dataset "${WORK_DIR}/advise_objects.csv")
execute_process(COMMAND "${CLI}" generate --family random --n 3000 --seed 5
                        --out "${dataset}"
                RESULT_VARIABLE status
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "generate failed (${status}): ${err}")
endif()

foreach(mode analytical sampling)
  foreach(threads 1 4)
    execute_process(COMMAND "${CLI}" advise --in "${dataset}" --mode ${mode}
                            --set medium-range --count 100
                            --threads ${threads}
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "advise --mode ${mode} --threads ${threads} "
                          "failed (${status}): ${err}")
    endif()
    if(NOT out MATCHES "<= chosen")
      message(FATAL_ERROR "advise --mode ${mode} --threads ${threads} "
                          "printed no chosen budget:\n${out}")
    endif()
    set(table_${threads} "${out}")
  endforeach()
  if(NOT table_1 STREQUAL table_4)
    message(FATAL_ERROR "advise --mode ${mode}: tables differ between "
                        "--threads 1 and 4\n--threads 1:\n${table_1}\n"
                        "--threads 4:\n${table_4}")
  endif()
endforeach()
